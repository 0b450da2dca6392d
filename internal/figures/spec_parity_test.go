package figures

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/spec"
)

// loadExampleSpec loads one spec from the repository's examples tree.
func loadExampleSpec(t *testing.T, name string) *spec.Spec {
	t.Helper()
	s, err := spec.Load(filepath.Join("..", "..", "examples", name))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecPresetParity pins that every built-in preset equals its spec
// file on disk compiled through PresetFromSpec: the embedded registry
// and the files users pass to -spec are the same definition.
func TestSpecPresetParity(t *testing.T) {
	presets := Presets()
	if len(presets) != 5 {
		t.Fatalf("registry holds %d presets, want 5", len(presets))
	}
	for _, want := range presets {
		t.Run(want.Name, func(t *testing.T) {
			got := PresetFromSpec(loadExampleSpec(t, want.Name+".yaml"))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spec-compiled preset differs from built-in:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestSpecPresetRenderParity is the end-to-end golden: running the
// spec-compiled preset produces byte-identical rendered output to the
// built-in preset, sequentially and at -parallel 4.
func TestSpecPresetRenderParity(t *testing.T) {
	for _, name := range []string{"million-qps", "cluster", "sharded"} {
		t.Run(name, func(t *testing.T) {
			builtin, _ := PresetByName(name)
			fromSpec := PresetFromSpec(loadExampleSpec(t, name+".yaml"))
			var renders []string
			for _, p := range []Preset{builtin, fromSpec} {
				for _, workers := range []int{1, 4} {
					pr, err := RunPreset(p, SweepOptions{Runs: 2, Seed: 7, TargetSamples: 300, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					renders = append(renders, pr.Render())
				}
			}
			for i, r := range renders[1:] {
				if r != renders[0] {
					t.Fatalf("render %d differs from sequential built-in run:\n%s\n--- vs ---\n%s", i+1, r, renders[0])
				}
			}
		})
	}
}
