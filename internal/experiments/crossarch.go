package experiments

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/offrt"
	"repro/internal/report"
	"repro/internal/workloads"
)

// CrossArchRow compares one program's offload across server architectures.
type CrossArchRow struct {
	Name      string
	LocalSec  float64
	X8664Sec  float64 // the paper's pair (little-endian, 64-bit)
	BE32Sec   float64 // big-endian 32-bit server
	OutputsOK bool    // all three executions produced identical output
}

// CrossArch extends the paper's evaluation to a server architecture pair it
// never measures: a big-endian 32-bit machine. The compiler inserts
// endianness translation on every server memory access (Section 3.2); the
// program must still compute bit-identical results, at a measurable
// translation cost. The paper's own ARM/x86 pair pays the address-size
// conversion instead (negligible, as Section 5.1 notes).
func CrossArch() (*report.Table, []CrossArchRow, error) {
	names := []string{"429.mcf", "183.equake", "456.hmmer"}
	t := report.New("Cross-architecture servers: x86-64 (paper) vs big-endian 32-bit",
		"Program", "Local(s)", "x86-64(s)", "BE32(s)", "BE/x86 overhead", "Outputs")
	var rows []CrossArchRow
	for _, name := range names {
		w := workloads.ByName(name)
		row := CrossArchRow{Name: name}

		runWith := func(server *arch.Spec) (*core.LocalResult, *core.OffloadResult, error) {
			fw := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, w.CostScale)
			fw.Server = server
			mod := w.Build()
			cres, err := fw.Prepare(mod, w.ProfileIO())
			if err != nil {
				return nil, nil, err
			}
			local, err := fw.RunLocal(mod, w.EvalIO())
			if err != nil {
				return nil, nil, err
			}
			off, err := fw.RunOffloaded(cres, w.EvalIO(), offrt.Policy{ForceOffload: true})
			if err != nil {
				return nil, nil, err
			}
			return local, off, nil
		}

		local, x86, err := runWith(arch.X8664())
		if err != nil {
			return nil, nil, err
		}
		_, be, err := runWith(arch.POWER32BE())
		if err != nil {
			return nil, nil, err
		}
		row.LocalSec = local.Time.Seconds()
		row.X8664Sec = x86.Time.Seconds()
		row.BE32Sec = be.Time.Seconds()
		row.OutputsOK = local.Output == x86.Output && local.Output == be.Output
		rows = append(rows, row)

		status := "identical"
		if !row.OutputsOK {
			status = "MISMATCH"
		}
		overhead := row.BE32Sec/row.X8664Sec - 1
		t.Add(name, row.LocalSec, row.X8664Sec, row.BE32Sec,
			fmt.Sprintf("+%.1f%%", 100*overhead), status)
	}
	t.Note("the big-endian server pays per-access endianness translation; results stay bit-identical")
	return t, rows, nil
}
