package zsim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestManyCoreShardedIdentity runs full applications beyond the old
// 64-processor ceiling (CI's many-core job runs it under -race -short): at
// 256 processors on the 16×16 mesh, at 256 on the hierarchical topology,
// and at 1024 on the 32×32 mesh. The multi-word presence sets make these
// machines representable at all; each cell runs twice on fresh machines
// and must produce the same Result, event total and trace window. The name
// dates from when the second run used the sharded kernel; the kernel is
// serial now, and the test keeps its name and subtest names so its history
// stays continuous.
func TestManyCoreShardedIdentity(t *testing.T) {
	cases := []struct {
		app   string
		kind  Kind
		procs int
		topo  string
	}{
		{"maxflow", RCInv, 256, "mesh"},
		{"cholesky", RCUpd, 256, "mesh"},
		{"maxflow", RCInv, 256, "hier"},
		{"maxflow", RCInv, 1024, "mesh"},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/%s/p%d/%s", c.app, c.kind, c.procs, c.topo), func(t *testing.T) {
			t.Parallel()
			params := DefaultParams(c.procs)
			params.Topology = c.topo
			r0, total0, ev0, err := runTraced(c.app, c.kind, params)
			if err != nil {
				t.Fatal(err)
			}
			r1, total1, ev1, err := runTraced(c.app, c.kind, params)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r0, r1) {
				t.Errorf("Result diverged between identical runs at %d procs:\n%s\nvs\n%s", c.procs, r0, r1)
			}
			if total0 != total1 {
				t.Errorf("event totals diverged: %d vs %d", total0, total1)
			}
			if !reflect.DeepEqual(ev0, ev1) {
				t.Errorf("trace streams diverged (window of last %d events)", traceCap)
			}
		})
	}
}

// TestManyCoreDirectoryWideSharers drives a directory entry past the old
// single-word presence-set ceiling on a real machine: a 256-processor
// all-read pattern must record every processor as a sharer and a writer's
// invalidation must reach all of them.
func TestManyCoreDirectoryWideSharers(t *testing.T) {
	const procs = 256
	app := &wideShareApp{}
	res, err := RunApp(app, RCInv, DefaultParams(procs))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 {
		t.Fatal("no cycles simulated")
	}
	if res.Counters.Invalidations < procs-1 {
		t.Errorf("writer invalidated %d sharers, want at least %d (presence set truncated?)",
			res.Counters.Invalidations, procs-1)
	}
}

// wideShareApp: every processor reads one shared line (populating 256
// presence bits), then processor 0 writes it (invalidating all of them).
type wideShareApp struct {
	x   F64
	bar *Barrier
}

func (a *wideShareApp) Name() string { return "wide-share" }

func (a *wideShareApp) Setup(m *Machine) {
	a.x = NewF64(m, 1)
	a.bar = NewBarrier(m)
}

func (a *wideShareApp) Body(e *Env) {
	a.x.Get(e, 0)
	a.bar.Wait(e)
	if e.ID() == 0 {
		a.x.Set(e, 0, 1)
	}
	a.bar.Wait(e)
	a.x.Get(e, 0)
}

func (a *wideShareApp) Verify(m *Machine) error { return nil }
