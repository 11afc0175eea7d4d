// The experiment registry: the single authoritative list of every table
// and figure in the paper's evaluation, in paper order. Both CLIs and the
// test suite iterate this list instead of keeping their own dispatch
// tables, so adding an experiment is one line here and nowhere else.
package experiments

import "fmt"

// Experiment is one runnable unit of the evaluation — a table or figure.
// Run executes it under the configuration and returns its printable result.
type Experiment interface {
	Name() string
	Run(Config) (fmt.Stringer, error)
}

// entry adapts a concrete experiment function (returning its own result
// type) to the Experiment interface, and threads the configuration's
// observability collector: each run is wrapped in a span scope named after
// the experiment, so core.Run's "run" spans nest under it.
type entry[T fmt.Stringer] struct {
	name string
	fn   func(Config) (T, error)
}

func (e entry[T]) Name() string { return e.name }

func (e entry[T]) Run(cfg Config) (fmt.Stringer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Obs.Enter(e.name)
	defer cfg.Obs.Exit(0) // scope node: time lives in the child "run" spans
	r, err := e.fn(cfg)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// def wraps an experiment function into a registry entry.
func def[T fmt.Stringer](name string, fn func(Config) (T, error)) Experiment {
	return entry[T]{name: name, fn: fn}
}

// Registry returns every experiment in the paper's presentation order.
// The returned slice is freshly allocated; callers may reorder or filter.
func Registry() []Experiment {
	return []Experiment{
		def("fig1", Figure1),
		def("fig2", Figure2),
		def("table1", Table1),
		def("fig3", Figure3),
		def("fig4", Figure4),
		def("fig5", Figure5),
		def("table2", Table2),
		def("fig6", Figure6),
		def("fig7", Figure7),
		def("fig8", Figure8),
		def("fig9", Figure9),
		def("fig10", Figure10),
		def("fig11", Figure11),
		def("fig12", Figure12),
		def("fig13", Figure13),
		def("ablations", Ablations),
		def("faultanomaly", FaultAnomaly),
		def("serve", Serve),
		def("fleet", Fleet),
		def("faultlocalize", FaultLocalize),
		def("schedlab", SchedLab),
	}
}

// Names returns the registry's experiment names in order.
func Names() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, e := range reg {
		names[i] = e.Name()
	}
	return names
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name() == name {
			return e, true
		}
	}
	return nil, false
}
