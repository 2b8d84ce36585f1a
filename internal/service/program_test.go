package service

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"prisim"
	"prisim/internal/fabric"
	"prisim/prisimclient"
)

// e2eProgram exercises the whole v2 frontend in one source: equated
// constant expressions, a parameterized macro with a local label (\@),
// interleaved .data/.text sections, and console output via putc.
const e2eProgram = `; end-to-end service test program
.equ COUNT, 2*3+1          ; 7 letters
.equ BASE, 65              ; 'A'

.data
greet: .asciz "prisim:"

.macro emitc val
  li r9, \val
  putc r9
.endm

.text
main:
  la   r1, greet
strloop:
  ldbu r2, 0(r1)
  beqz r2, letters

.data
pad: .space 16             ; interleaved data between text runs

.text
  putc r2
  addi r1, r1, 1
  j strloop
letters:
  li   r3, 0
lloop:
  addi r4, r3, BASE
  putc r4
  addi r3, r3, 1
  li   r5, COUNT
  bne  r3, r5, lloop
  emitc 10                 ; newline
  halt
`

// TestEndToEndProgramByteIdentical submits a user program over HTTP,
// follows its SSE stream to completion, and requires the result and console
// output to be byte-identical to Engine.SimulateProgram run locally on the
// same source.
func TestEndToEndProgramByteIdentical(t *testing.T) {
	srv, c := boot(t, Config{Workers: 2})

	j, err := c.SubmitProgram(bg, []byte(e2eProgram), prisimclient.JobRequest{Run: tinyRun})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Stream(bg, j.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Fatalf("job state = %s (%s)", final.State, final.Error)
	}
	res, err := c.Result(bg, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result == nil {
		t.Fatal("program job finished without a result")
	}

	prog, err := prisim.AssembleFile("program.s", e2eProgram)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.Engine().SimulateProgram(bg, prog, prisim.Options{
		Run:      tinyRun,
		MemLimit: DefaultMaxProgramMemory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res.Result, want.Result) {
		t.Errorf("service result = %+v, want %+v", *res.Result, want.Result)
	}
	if !bytes.Equal(res.Output, want.Output) {
		t.Errorf("service output = %q, want %q", res.Output, want.Output)
	}
	if !bytes.HasPrefix(res.Output, []byte("prisim:ABCDEFG\n")) {
		t.Errorf("console output = %q, want prefix %q", res.Output, "prisim:ABCDEFG\n")
	}
}

// TestProgramResubmissionServedFromStore pins the caching contract: a warm
// resubmission of the same image + budget must resolve from the durable
// store with zero new engine runs, preserving the original provenance.
func TestProgramResubmissionServedFromStore(t *testing.T) {
	st, err := fabric.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	_, c := boot(t, Config{Workers: 1, Coordinator: coordinator(t, fabric.Config{Store: st, NodeID: "prog-node"})})

	run := func() *prisimclient.JobResult {
		t.Helper()
		j, err := c.SubmitProgram(bg, []byte(e2eProgram), prisimclient.JobRequest{Run: tinyRun})
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.Wait(bg, j.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != prisimclient.StateDone {
			t.Fatalf("job state = %s (%s)", final.State, final.Error)
		}
		res, err := c.Result(bg, j.ID)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run()
	// prisimd_sim_committed_instructions_total only advances when a job
	// actually dispatches the engine, so a frozen counter across the second
	// run proves the store answered it without simulating.
	page1, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	committedAfterFirst := metricValue(t, page1, "prisimd_sim_committed_instructions_total")
	second := run()

	page, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, page, "prisimd_sim_committed_instructions_total"); got != committedAfterFirst {
		t.Errorf("warm resubmission dispatched the engine: committed %g -> %g", committedAfterFirst, got)
	}
	if first.ComputedBy != "prog-node" || second.ComputedBy != "prog-node" {
		t.Errorf("ComputedBy = (%q, %q), want provenance preserved on both", first.ComputedBy, second.ComputedBy)
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Error("store-served result differs from the computed one")
	}
	if !bytes.Equal(first.Output, second.Output) {
		t.Errorf("store-served output %q differs from computed %q", second.Output, first.Output)
	}
	if st.Len() != 1 {
		t.Errorf("store holds %d entries, want 1", st.Len())
	}
	if got := metricValue(t, page, "prisimd_jobs_store_served_total"); got != 1 {
		t.Errorf("prisimd_jobs_store_served_total = %g, want 1", got)
	}
	if got := metricValue(t, page, "prisimd_programs_assembled_total"); got != 2 {
		t.Errorf("prisimd_programs_assembled_total = %g, want 2", got)
	}
}

// badProgram fails to assemble with (at least) two independent errors on
// different lines, so the 422 body must carry both diagnostics.
const badProgram = `main:
  addi r1, r99, 1        ; bad register
  frob r1, r2            ; unknown mnemonic
  halt
`

// TestProgramSubmit422Diagnostics requires assembly failures to answer 422
// with every positioned diagnostic, on both the submit and check paths.
func TestProgramSubmit422Diagnostics(t *testing.T) {
	_, c := boot(t, Config{Workers: 1})

	checkDiags := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, prisimclient.ErrAssembly) {
			t.Fatalf("err = %v, want ErrAssembly (422)", err)
		}
		var apiErr *prisimclient.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("err = %v, want *APIError", err)
		}
		if len(apiErr.Diagnostics) < 2 {
			t.Fatalf("got %d diagnostics, want >= 2: %v", len(apiErr.Diagnostics), apiErr.Diagnostics)
		}
		for i, d := range apiErr.Diagnostics {
			if d.File != "program.s" || d.Line <= 0 || d.Col <= 0 || d.Msg == "" {
				t.Errorf("diagnostic %d = %+v, want positioned program.s:line:col with a message", i, d)
			}
		}
		if apiErr.Diagnostics[0].Line == apiErr.Diagnostics[1].Line {
			t.Errorf("both diagnostics on line %d, want independent errors", apiErr.Diagnostics[0].Line)
		}
	}

	_, err := c.SubmitProgram(bg, []byte(badProgram), prisimclient.JobRequest{})
	checkDiags(t, err)

	_, err = c.CheckProgram(bg, []byte(badProgram))
	checkDiags(t, err)
}

// TestProgramCheckEndpoint verifies the dry-run endpoint reports the image
// identity a submission would be keyed on.
func TestProgramCheckEndpoint(t *testing.T) {
	_, c := boot(t, Config{Workers: 1})

	info, err := c.CheckProgram(bg, []byte(e2eProgram))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.SHA256) != 64 || strings.Trim(info.SHA256, "0123456789abcdef") != "" {
		t.Errorf("SHA256 = %q, want 64 hex chars", info.SHA256)
	}
	if info.CodeWords == 0 || info.DataSegments == 0 || info.DataBytes == 0 {
		t.Errorf("info = %+v, want nonzero code and data", info)
	}

	prog, err := prisim.AssembleFile("program.s", e2eProgram)
	if err != nil {
		t.Fatal(err)
	}
	if prog.SHA256() != info.SHA256 {
		t.Errorf("check SHA256 = %s, local assembly = %s", info.SHA256, prog.SHA256())
	}
}

// TestProgramRunBudgetCap pins the sandbox rule: a run budget above the
// server cap is rejected outright (400), never silently clamped.
func TestProgramRunBudgetCap(t *testing.T) {
	_, c := boot(t, Config{Workers: 1, Programs: ProgramLimits{MaxRun: 1000}})

	_, err := c.SubmitProgram(bg, []byte(e2eProgram), prisimclient.JobRequest{Run: 2000})
	var apiErr *prisimclient.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
	if !strings.Contains(apiErr.Message, "cap") {
		t.Errorf("error %q does not mention the cap", apiErr.Message)
	}

	// At or below the cap the job runs; Run 0 resolves to the cap.
	j, err := c.SubmitProgram(bg, []byte(e2eProgram), prisimclient.JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(bg, j.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Fatalf("job state = %s (%s)", final.State, final.Error)
	}
}

// TestProgramMemLimitFails pins the footprint sandbox: a program that
// touches more simulated memory than the server allows fails cleanly.
func TestProgramMemLimitFails(t *testing.T) {
	_, c := boot(t, Config{Workers: 1, Programs: ProgramLimits{MaxMemoryBytes: 64 << 10}})

	// Walk stores across 16 MiB so the footprint blows the 64 KiB cap.
	const hog = `main:
  li r1, 4096
  li r2, 16777216
loop:
  stq r1, 0(r2)
  addi r2, r2, 8192
  addi r1, r1, -1
  bnez r1, loop
  halt
`
	j, err := c.SubmitProgram(bg, []byte(hog), prisimclient.JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(bg, j.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateFailed {
		t.Fatalf("job state = %s, want failed (mem limit)", final.State)
	}
	if !strings.Contains(final.Error, "memory limit") {
		t.Errorf("error %q does not mention the memory limit", final.Error)
	}
}
