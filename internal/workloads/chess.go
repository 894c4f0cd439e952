package workloads

import (
	"repro/internal/interp"
	"repro/internal/ir"
)

// ChessConfig sizes the chess game of the paper's running example.
type ChessConfig struct {
	// LeafEvals is how many board positions each minimax leaf evaluates
	// through the evals function-pointer table.
	LeafEvals int64
	// Branch is the minimax branching factor; movement computation costs
	// ~Branch^depth, reproducing Table 1's growth across difficulty
	// levels.
	Branch int64
}

// DefaultChessConfig matches the Figure 3 example closely enough for the
// Table 1 / Table 3 experiments.
func DefaultChessConfig() ChessConfig {
	return ChessConfig{LeafEvals: 8, Branch: 3}
}

// BuildChess constructs the chess program of Figure 3(a):
//
//	main: scanf maxDepth, board = malloc(64*Piece), runGame()
//	runGame: per turn { mv = getPlayerTurn(); updateBoard(mv);
//	                    score = getAITurn(); ... }
//	getAITurn: minimax search; leaves evaluate pieces through the
//	           evals[] function-pointer table; prints per-level scores
//	getPlayerTurn: scanf("%d,%d")
//
// Expected stdin: maxDepth, turns, then (from, to) per turn.
func BuildChess(cfg ChessConfig) *ir.Module {
	mod := ir.NewModule("chess")
	b := ir.NewBuilder(mod)

	piece := ir.Struct("Piece",
		ir.StructField{Name: "loc", Type: ir.I8},
		ir.StructField{Name: "owner", Type: ir.I8},
		ir.StructField{Name: "type", Type: ir.I8},
	)
	evalSig := ir.Signature(ir.F64, ir.Ptr(piece))

	// Globals: referenced by the offloaded task, so the unifier will move
	// them to the UVA space.
	maxDepth := b.GlobalVar("maxDepth", ir.I32)
	board := b.GlobalVar("board", ir.Ptr(piece))

	// Seven eval routines (Pawn..King), each with distinct arithmetic so
	// wrong function-pointer translation is observable in the score.
	var evalFuncs []ir.Value
	weights := []float64{1, 3, 3.25, 5, 9, 200, 0.5}
	names := []string{"evalPawn", "evalKnight", "evalBishop", "evalRook", "evalQueen", "evalKing", "evalNone"}
	for i, name := range names {
		f := b.NewFunc(name, ir.F64, ir.P("p", ir.Ptr(piece)))
		loc := b.Convert(ir.ConvIntToFP, b.Convert(ir.ConvZExt, b.Load(b.Field(f.Params[0], 0)), ir.I32), ir.F64)
		owner := b.Convert(ir.ConvIntToFP, b.Convert(ir.ConvZExt, b.Load(b.Field(f.Params[0], 1)), ir.I32), ir.F64)
		v := b.Add(b.Mul(loc, ir.Float(weights[i])), owner)
		b.Ret(v)
		evalFuncs = append(evalFuncs, f)
	}
	evals := b.GlobalVar("evals", ir.Array(ir.Ptr(evalSig), 7), evalFuncs...)

	// minimax(depth) -> f64: interior nodes branch; leaves evaluate
	// LeafEvals pieces through the function-pointer table.
	minimax := b.NewFunc("minimax", ir.F64, ir.P("depth", ir.I32))
	{
		best := b.Alloca(ir.F64)
		b.Store(best, ir.Float(0))
		b.If(b.Cmp(ir.LE, b.F.Params[0], ir.Int(0)),
			func() {
				bd := b.Load(board)
				b.For("leaf", ir.Int(0), ir.Int(cfg.LeafEvals), ir.Int(1), func(j ir.Value) {
					idx := b.Rem(b.Mul(j, ir.Int(11)), ir.Int(64))
					pc := b.Index(bd, idx)
					pt := b.Convert(ir.ConvZExt, b.Load(b.Field(pc, 2)), ir.I32)
					slot := b.Index(evals, b.Rem(pt, ir.Int(7)))
					fp := b.Load(slot)
					b.Store(best, b.Add(b.Load(best), b.CallPtr(fp, evalSig, pc)))
				})
			},
			func() {
				b.For("branch", ir.Int(0), ir.Int(cfg.Branch), ir.Int(1), func(k ir.Value) {
					sub := b.Call(minimax, b.Sub(b.F.Params[0], ir.Int(1)))
					b.Store(best, b.Add(b.Load(best), b.Mul(sub, ir.Float(0.99))))
				})
			})
		b.Ret(b.Load(best))
	}

	// getAITurn: for i < maxDepth { score += minimax(i); printf } — the
	// offload target (printf is remotable output, Figure 3(c) line 61).
	ai := b.NewFunc("getAITurn", ir.F64)
	{
		score := b.Alloca(ir.F64)
		b.Store(score, ir.Float(0))
		depth := b.Load(maxDepth)
		b.For("for_i", ir.Int(0), depth, ir.Int(1), func(i ir.Value) {
			b.Store(score, b.Add(b.Load(score), b.Call(minimax, i)))
			b.CallExtern(ir.ExternPrintf, b.Str("%f\n"), b.Load(score))
		})
		b.Ret(b.Load(score))
	}

	// getPlayerTurn: interactive input -> machine specific.
	player := b.NewFunc("getPlayerTurn", ir.I32)
	{
		from := b.Alloca(ir.I32)
		to := b.Alloca(ir.I32)
		b.CallExtern(ir.ExternScanf, b.Str("%d,%d"), from, to)
		b.Ret(b.Or(b.Shl(b.Load(from), ir.Int(8)), b.Load(to)))
	}

	// updateBoard(mv): move a piece.
	update := b.NewFunc("updateBoard", ir.Void, ir.P("mv", ir.I32))
	{
		bd := b.Load(board)
		from := b.Rem(b.Shr(b.F.Params[0], ir.Int(8)), ir.Int(64))
		to := b.Rem(b.And(b.F.Params[0], ir.Int(255)), ir.Int(64))
		src := b.Index(bd, from)
		dst := b.Index(bd, to)
		b.Store(b.Field(dst, 2), b.Load(b.Field(src, 2)))
		b.Store(b.Field(dst, 1), b.Load(b.Field(src, 1)))
		b.Store(b.Field(src, 2), ir.Int8(0))
		b.RetVoid()
	}

	// runGame: the turn loop.
	run := b.NewFunc("runGame", ir.Void)
	{
		turns := b.Alloca(ir.I32)
		b.CallExtern(ir.ExternScanf, b.Str("%d"), turns)
		b.For("turns", ir.Int(0), b.Load(turns), ir.Int(1), func(i ir.Value) {
			mv := b.Call(player)
			b.Call(update, mv)
			sc := b.Call(ai)
			b.CallExtern(ir.ExternPrintf, b.Str("turn score %f\n"), sc)
		})
		b.RetVoid()
	}

	// main.
	b.NewFunc("main", ir.I32)
	{
		b.CallExtern(ir.ExternScanf, b.Str("%d"), maxDepth)
		raw := b.CallExtern(ir.ExternMalloc, ir.Int(sizeOf(piece)*64))
		bd := b.Convert(ir.ConvBitcast, raw, ir.Ptr(piece))
		b.Store(board, bd)
		b.For("init", ir.Int(0), ir.Int(64), ir.Int(1), func(i ir.Value) {
			pc := b.Index(bd, i)
			b.Store(b.Field(pc, 0), b.Convert(ir.ConvTrunc, i, ir.I8))
			b.Store(b.Field(pc, 1), b.Convert(ir.ConvTrunc, b.Rem(i, ir.Int(2)), ir.I8))
			b.Store(b.Field(pc, 2), b.Convert(ir.ConvTrunc, b.Rem(i, ir.Int(7)), ir.I8))
		})
		b.Call(run)
		b.Ret(ir.Int(0))
	}
	b.Finish()
	return mod
}

// ChessInput builds the stdin token stream: depth, turns, and (from, to)
// pairs.
func ChessInput(depth, turns int64) *interp.StdIO {
	io := interp.NewStdIO(nil)
	io.MaxBuffered = 1 << 20
	io.AddInput(depth, turns)
	for i := int64(0); i < turns; i++ {
		io.AddInput((i*7+3)%64, (i*13+5)%64)
	}
	return io
}

// ChessCostScale amplifies interpreter cost of chess on both devices. Our
// tree grows as 3^depth, more gently than the paper's, so the depth-11
// movement computation takes about half of Table 1's 66 s on the mobile.
const ChessCostScale = 140
