package sampling

import "repro/internal/trace"

// Section 3.2 notes that a single system call name is a weak transition
// signal when calls of that name occur in many semantic contexts, and
// suggests "employing more complex signals like a sequence of two or more
// recent system call names". This file implements that extension: bigram
// signals keyed by the previous and current call names.
//
// The canonical case is the web server's read: the read that follows poll
// pulls in a fresh HTTP request and precedes a CPI jump, while a read
// inside the parse loop changes nothing. The unigram "read" statistic blurs
// the two; the bigrams "poll>read" and "read>read" separate them.

// BigramKey builds the trainer/trigger key for a call sequence. An empty
// previous name (request start or post-switch) yields just the name, so
// unigram statistics remain available under their plain keys.
func BigramKey(prev, name string) string {
	if prev == "" {
		return name
	}
	return prev + ">" + name
}

// bigramState tracks the previous system call per core for bigram keying.
// It holds the call's ID, so keeping it current costs no string work; the
// key string is built only where a signal is looked up or trained.
type bigramState struct {
	prev trace.Syscall
}

// next records call as the latest and returns the call before it
// (trace.NoSyscall at request start or after a switch).
func (b *bigramState) next(call trace.Syscall) (prev trace.Syscall) {
	prev, b.prev = b.prev, call
	return prev
}

func (b *bigramState) reset() { b.prev = trace.NoSyscall }
