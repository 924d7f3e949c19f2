package pipeline

import (
	"strings"
	"testing"

	"repro/internal/readsim"
)

// sameParams compares everything Resolve may set (Options holds func fields,
// so == is unavailable): the fingerprinted parameters plus Threads.
func sameParams(a, b Options) bool {
	return a.Fingerprint() == b.Fingerprint() && a.Threads == b.Threads && a.AlignBackend == b.AlignBackend
}

// TestResolve pins the one spec → Options rule: the base is the named
// preset's (the defaults for ""), a zero override keeps the base value, any
// other value is applied and then judged by Validate.
func TestResolve(t *testing.T) {
	t.Run("base", func(t *testing.T) {
		for name, want := range map[string]Options{
			"":         DefaultOptions(4),
			"celegans": PresetOptions(readsim.CElegansLike, 4),
			"osativa":  PresetOptions(readsim.OSativaLike, 4),
			"hsapiens": PresetOptions(readsim.HSapiensLike, 4),
		} {
			got, err := Resolve(name, 4, Overrides{})
			if err != nil {
				t.Fatalf("Resolve(%q): %v", name, err)
			}
			if !sameParams(got, want) {
				t.Errorf("Resolve(%q) = %+v, want the preset base %+v", name, got, want)
			}
		}
	})

	t.Run("override", func(t *testing.T) {
		base := PresetOptions(readsim.HSapiensLike, 4)
		for _, tc := range []struct {
			name string
			ov   Overrides
			want func(*Options)
		}{
			{"Threads", Overrides{Threads: 3}, func(o *Options) { o.Threads = 3 }},
			{"K", Overrides{K: 19}, func(o *Options) { o.K = 19 }},
			{"XDrop", Overrides{XDrop: 9}, func(o *Options) { o.XDrop = 9 }},
			{"MinOverlap", Overrides{MinOverlap: 77}, func(o *Options) { o.MinOverlap = 77 }},
			{"MaxOverhang", Overrides{MaxOverhang: 55}, func(o *Options) { o.MaxOverhang = 55 }},
			{"TRFuzz", Overrides{TRFuzz: 500}, func(o *Options) { o.TRFuzz = 500 }},
			{"TRMaxIter", Overrides{TRMaxIter: 3}, func(o *Options) { o.TRMaxIter = 3 }},
			{"Backend", Overrides{Backend: BackendWFA}, func(o *Options) { o.AlignBackend = BackendWFA }},
		} {
			got, err := Resolve("hsapiens", 4, tc.ov)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			// Every other field keeps the preset's value: the hsapiens
			// base differs from the defaults in K, XDrop, MinOverlap,
			// MaxOverhang and TRFuzz, so a reset to defaults would show.
			want := base
			tc.want(&want)
			if !sameParams(got, want) {
				t.Errorf("%s: got %+v, want %+v", tc.name, got, want)
			}
		}
	})

	t.Run("negative", func(t *testing.T) {
		for field, ov := range map[string]Overrides{
			"Options.Threads":     {Threads: -3},
			"Options.K":           {K: -3},
			"Options.XDrop":       {XDrop: -3},
			"Options.MinOverlap":  {MinOverlap: -3},
			"Options.MaxOverhang": {MaxOverhang: -3},
			"Options.TRFuzz":      {TRFuzz: -3},
			"Options.TRMaxIter":   {TRMaxIter: -3},
		} {
			_, err := Resolve("celegans", 4, ov)
			if err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%+v: error %v, want one naming %s", ov, err, field)
			}
		}
	})

	t.Run("together", func(t *testing.T) {
		_, err := Resolve("celegans", 3, Overrides{K: 99, XDrop: -2, Backend: "quantum"})
		if err == nil {
			t.Fatal("invalid description resolved")
		}
		for _, field := range []string{"Options.P", "Options.K", "Options.XDrop", "Options.AlignBackend"} {
			if !strings.Contains(err.Error(), field) {
				t.Errorf("error does not name %s:\n%v", field, err)
			}
		}
	})

	t.Run("unknown preset", func(t *testing.T) {
		if _, err := Resolve("martian", 4, Overrides{}); err == nil || !strings.Contains(err.Error(), "martian") {
			t.Fatalf("unknown preset: error %v", err)
		}
	})
}
