package memsys

import (
	"strings"
	"testing"
)

// TestParamsFromJSONRejectsUntrustedInput drives the decoder the way the
// zsimd daemon's API boundary does: every malformed, out-of-range, or
// silently-wrong input must be rejected with a diagnosable error, never
// decoded in good faith.
func TestParamsFromJSONRejectsUntrustedInput(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"syntax truncated", `{`, "bad params JSON"},
		{"syntax not an object", `[1,2]`, "bad params JSON"},
		{"wrong field type", `{"Procs":"sixteen"}`, "bad params JSON"},
		{"unknown field", `{"Porcs":16}`, "unknown field"},
		{"unknown field among valid", `{"Procs":16,"LineSz":64}`, "unknown field"},
		{"removed kernel shards field", `{"KernelShards":4}`, "unknown field"},
		{"trailing garbage", `{"Procs":16} {"Procs":8}`, "trailing data"},
		{"trailing scalar", `{"Procs":16} 7`, "trailing data"},
		{"procs zero", `{"Procs":0}`, "Procs"},
		{"procs negative", `{"Procs":-4}`, "Procs"},
		{"procs over 1024 cap", `{"Procs":1025}`, "exceeds the 1024-processor capacity"},
		{"procs far over cap", `{"Procs":4096}`, "exceeds the 1024-processor capacity"},
		{"hier non multiple of cluster", `{"Procs":24,"Topology":"hier"}`, "hier"},
		{"hwthreads not dividing", `{"Procs":16,"HWThreads":3}`, "HWThreads"},
		{"hwthreads negative", `{"HWThreads":-1}`, "HWThreads"},
		{"line size not power of two", `{"LineSize":24}`, "LineSize"},
		{"line size zero", `{"LineSize":0}`, "LineSize"},
		{"zline size not power of two", `{"ZLineSize":3}`, "ZLineSize"},
		{"link cost zero", `{"LinkCyclesPerByte":0}`, "LinkCyclesPerByte"},
		{"link cost negative", `{"LinkCyclesPerByte":-1.6}`, "LinkCyclesPerByte"},
		{"store buffer zero", `{"StoreBufEntries":0}`, "StoreBufEntries"},
		{"merge buffer zero", `{"MergeBufLines":0}`, "MergeBufLines"},
		{"competitive threshold zero", `{"CompThreshold":0}`, "CompThreshold"},
		{"competitive threshold over 16 bits", `{"CompThreshold":65536}`, "CompThreshold"},
		{"finite cache incomplete", `{"FiniteCache":true}`, "finite cache"},
		{"finite cache assoc mismatch", `{"FiniteCache":true,"CacheLines":10,"CacheAssoc":4}`, "CacheAssoc"},
		{"dir pointers negative", `{"DirPointers":-1}`, "DirPointers"},
		{"unknown topology", `{"Topology":"ring"}`, "topology"},
		{"hypercube non power of two", `{"Procs":12,"Topology":"hypercube"}`, "hypercube"},
		{"unknown zoracle", `{"ZOracle":"psychic"}`, "ZOracle"},
		{"unknown fault injection", `{"FaultInjection":"drop-everything"}`, "FaultInjection"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParamsFromJSON([]byte(tc.in))
			if err == nil {
				t.Fatalf("ParamsFromJSON(%s) accepted", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParamsFromJSON(%s) error %q does not mention %q", tc.in, err, tc.want)
			}
		})
	}
}

// TestParamsFromJSONBoundaryAccepts pins the other side of the cap: the
// largest legal machine and unusual-but-valid inputs decode cleanly.
func TestParamsFromJSONBoundaryAccepts(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"procs at the old 64 ceiling", `{"Procs":64}`},
		{"procs at the 1024 cap", `{"Procs":1024}`},
		{"competitive threshold at the 16-bit cap", `{"CompThreshold":65535}`},
		{"many-core 256", `{"Procs":256}`},
		{"hier topology", `{"Procs":256,"Topology":"hier"}`},
		{"single proc", `{"Procs":1}`},
		{"empty object keeps defaults", `{}`},
		{"null keeps defaults", `null`},
		{"hypercube power of two", `{"Procs":16,"Topology":"hypercube"}`},
		{"finite cache complete", `{"FiniteCache":true,"CacheLines":64,"CacheAssoc":4}`},
		// Inconsistent mesh dimensions are documented as recomputed, not
		// rejected: a partial file changing Procs keeps working.
		{"mesh recomputed", `{"MeshW":3,"MeshH":3}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pa, err := ParamsFromJSON([]byte(tc.in))
			if err != nil {
				t.Fatalf("ParamsFromJSON(%s): %v", tc.in, err)
			}
			if err := pa.Validate(); err != nil {
				t.Fatalf("decoded params invalid: %v", err)
			}
		})
	}
	pa, err := ParamsFromJSON([]byte(`{"Procs":1024}`))
	if err != nil {
		t.Fatal(err)
	}
	if pa.Procs != MaxProcs {
		t.Fatalf("Procs = %d, want the %d cap", pa.Procs, MaxProcs)
	}
	if pa.MeshW != 32 || pa.MeshH != 32 {
		t.Fatalf("mesh = %dx%d, want the recomputed 32x32", pa.MeshW, pa.MeshH)
	}
}
