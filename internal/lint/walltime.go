package lint

import (
	"go/ast"
	"go/types"
)

// WallTime flags host wall-clock and global-randomness reads inside the
// deterministic zone. Simulated time advances only through the engine's
// virtual clock; a time.Now (or a draw from math/rand's shared global
// source) inside that domain makes results depend on the host scheduler,
// which is exactly the nondeterminism the fault-injection experiments must
// not contain. Host-side packages (runner, prof, metrics, ...) are outside
// the zone and may time themselves freely.
//
// Seeded generators are fine: rand.New(rand.NewSource(seed)) is
// deterministic and is how the litmus generator derives programs. Only the
// package-level functions that consult the process-global source (and the
// wall clock itself) are flagged.
var WallTime = &Analyzer{
	Name:     "walltime",
	Doc:      "wall-clock time and global math/rand draws are nondeterministic inside the simulated clock domain",
	ZoneOnly: true,
	Run:      runWallTime,
}

// wallTimeFuncs are the time package functions that read the host clock.
var wallTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// seededRandFuncs are the math/rand functions that do NOT touch the global
// source: constructors for explicitly seeded generators.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runWallTime(p *Package) []Finding {
	var out []Finding
	p.inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := p.calleeFunc(call)
		if fn == nil || fn.Type().(*types.Signature).Recv() != nil {
			return true // methods (e.g. (*rand.Rand).Intn) are per-instance and fine
		}
		switch pkgPathOf(fn) {
		case "time":
			if wallTimeFuncs[fn.Name()] {
				out = append(out, p.finding(call, "walltime",
					"time.%s reads the host wall clock inside the simulated clock domain; derive time from the engine's virtual clock", fn.Name()))
			}
		case "math/rand", "math/rand/v2":
			if !seededRandFuncs[fn.Name()] {
				out = append(out, p.finding(call, "walltime",
					"rand.%s draws from the process-global source; use rand.New(rand.NewSource(seed)) so results replay bit-identically", fn.Name()))
			}
		}
		return true
	})
	return out
}
