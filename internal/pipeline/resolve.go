package pipeline

import "repro/internal/readsim"

// Overrides is the parameter set a job description — cmd/elba's flags, an
// elbad JobSpec — may change on top of a preset's base. A zero field keeps
// the base value; any other value replaces it.
type Overrides struct {
	Threads     int
	K           int
	XDrop       int32
	MinOverlap  int32
	MaxOverhang int32
	TRFuzz      int32
	TRMaxIter   int
	Backend     string
}

// Resolve is the one way from a job description to validated Options: the
// base is PresetOptions for the named preset (DefaultOptions when preset is
// ""), every non-zero override is applied, and the result is judged by
// Validate — so an out-of-range override is an error naming its field
// (all of them together), never a silent fall back to the base value.
func Resolve(preset string, p int, ov Overrides) (Options, error) {
	o := DefaultOptions(p)
	if preset != "" {
		pr, err := readsim.ParsePreset(preset)
		if err != nil {
			return Options{}, err
		}
		o = PresetOptions(pr, p)
	}
	override(&o.Threads, ov.Threads)
	override(&o.K, ov.K)
	override(&o.XDrop, ov.XDrop)
	override(&o.MinOverlap, ov.MinOverlap)
	override(&o.MaxOverhang, ov.MaxOverhang)
	override(&o.TRFuzz, ov.TRFuzz)
	override(&o.TRMaxIter, ov.TRMaxIter)
	override(&o.AlignBackend, ov.Backend)
	if err := o.Validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// override replaces *base with v unless v is the zero value.
func override[T comparable](base *T, v T) {
	var zero T
	if v != zero {
		*base = v
	}
}
