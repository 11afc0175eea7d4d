// Online identification fast path, part 1: the shared side. A Matcher
// freezes a Bank for streaming identification; Sessions started on it keep
// all per-request state, so the matcher itself is only the bank they read.
package signature

// Matcher is an immutable view of a Bank prepared for streaming
// identification. It is safe for concurrent use: any number of Sessions
// may read it at once.
type Matcher struct {
	bank *Bank
}

// NewMatcher prepares a bank for streaming identification. The bank must
// not be mutated afterwards; to identify against a new bank, start a new
// matcher and new sessions on it.
func NewMatcher(b *Bank) *Matcher { return &Matcher{bank: b} }

// Bank returns the matcher's underlying bank.
func (m *Matcher) Bank() *Bank { return m.bank }
