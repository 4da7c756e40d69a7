package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"sagrelay/internal/scenario"
	"sagrelay/internal/serve"
)

// childEnv, when set, turns the test binary into a sagserved process: the
// kill -9 drill needs a real child to kill, and re-executing the test
// binary gives it one without building the command separately.
const childEnv = "SAGSERVED_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "sagserved:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestKill9MidSolveReplaysJournal is the crash-recovery drill:
//
//  1. spawn a child sagserved with a journal (-data-dir) and a fault plan
//     that slows every simplex pivot, so the submitted job is reliably
//     still running when the axe falls;
//  2. submit a GAC solve, wait until the child reports it running, then
//     kill -9 the child — no drain, no goodbye, a torn journal tail is fair;
//  3. restart the service in-process on the same data dir (without the
//     slowdown) and require the journal to replay the job under its
//     original ID to a served 200 result with a fresh flight record;
//  4. bounce the service once more and require the finished job to be
//     restored from disk byte-identically with zero solver work.
func TestKill9MidSolveReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	// Stage 1: child server, journaled, deliberately slow.
	child := exec.Command(exe,
		"-addr", "127.0.0.1:0",
		"-data-dir", dir,
		"-workers", "2",
		"-fault", "lp.pivot=delay:d=5ms",
		"-fault-seed", "1",
	)
	child.Env = append(os.Environ(), childEnv+"=1")
	stderr, err := child.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if child.Process != nil {
			child.Process.Kill()
			child.Wait()
		}
	})

	base, err := scanListenAddr(stderr)
	if err != nil {
		t.Fatalf("child did not report a listen address: %v", err)
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained
	t.Logf("child serving on %s (journal %s)", base, dir)

	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: 300, NumSS: 10, NumBS: 2, SNRdB: -15, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.SolveRequest{
		Scenario: sc,
		Options:  serve.SolveOptions{Coverage: "GAC", TimeoutMS: 600_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil || submitted.ID == "" {
		t.Fatalf("submit answered %s (%v)", resp.Status, err)
	}
	jobID := submitted.ID

	// Wait for the job to actually be solving, so the kill lands mid-run.
	if err := pollState(base, jobID, "running", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Logf("job %s running; killing child with SIGKILL", jobID)
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()
	child.Process = nil

	// Stage 2: restart on the same journal, full speed. The replay must
	// resurrect the job under its original ID and drive it to completion.
	srv, err := serve.NewServer(serve.Options{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if m := srv.MetricsSnapshot(); m["journal_replayed_jobs"] != 1 {
		t.Fatalf("journal_replayed_jobs = %d, want 1", m["journal_replayed_jobs"])
	}
	base = serveOn(t, srv)
	result, err := pollResult(base, jobID, 120*time.Second)
	if err != nil {
		t.Fatalf("replayed job: %v", err)
	}
	var doc serve.ResultDoc
	if err := json.Unmarshal(result, &doc); err != nil {
		t.Fatalf("result not JSON: %v", err)
	}
	if !doc.Feasible {
		t.Fatalf("replayed solve infeasible: %s", result)
	}
	// The re-run produced live evidence: the replayed job must have a flight
	// record in the new process (the ring lands it just after completion).
	flightDeadline := time.Now().Add(5 * time.Second)
	for {
		if rec, ok := srv.FlightRecorder().Get(jobID); ok {
			// A replay may settle "done" or "degraded" (the ladder can fire
			// on a re-run); either way the ring has live evidence.
			if rec.Outcome != "done" && rec.Outcome != "degraded" {
				t.Fatalf("replayed job flight outcome = %q, want done or degraded", rec.Outcome)
			}
			break
		}
		if time.Now().After(flightDeadline) {
			t.Fatal("replayed job has no flight record after restart")
		}
		time.Sleep(20 * time.Millisecond)
	}
	shutdown(t, srv)

	// Stage 3: one more restart. The finished job must now be restored from
	// the journal and served byte-identically with no solver work at all.
	srv2, err := serve.NewServer(serve.Options{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	t.Cleanup(func() { shutdown(t, srv2) })
	restored, err := pollResult(serveOn(t, srv2), jobID, 10*time.Second)
	if err != nil {
		t.Fatalf("restored job: %v", err)
	}
	if !bytes.Equal(restored, result) {
		t.Fatal("restored result is not byte-identical to the solved one")
	}
	m := srv2.MetricsSnapshot()
	if m["journal_restored_jobs"] < 1 || m["solves"] != 0 {
		t.Fatalf("second restart restored=%d solves=%d, want >=1 and 0",
			m["journal_restored_jobs"], m["solves"])
	}
	// The flight ring is memory-only and died with each process — the
	// journal-restored job has no record, and its loss must not have
	// affected recovery: the result above is still byte-identical.
	if n := srv2.FlightRecorder().Len(); n != 0 {
		t.Fatalf("restored-only restart has %d flight records, want 0 (ring is volatile)", n)
	}
}

// serveOn serves srv's HTTP API on a loopback port until the test ends and
// returns the base URL.
func serveOn(t *testing.T, srv *serve.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	t.Cleanup(func() { httpSrv.Close() })
	return "http://" + ln.Addr().String()
}

func shutdown(t *testing.T, srv *serve.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// scanListenAddr reads the child's stderr until the "listening on" line and
// returns the base URL.
func scanListenAddr(r io.Reader) (string, error) {
	scanner := bufio.NewScanner(r)
	deadline := time.Now().Add(30 * time.Second)
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			// The address may be the tail of a quoted slog message
			// (msg="listening on http://...") — strip the closing quote.
			return strings.Trim(strings.TrimSpace(line[i+len("listening on "):]), `"`), nil
		}
		if time.Now().After(deadline) {
			break
		}
	}
	if err := scanner.Err(); err != nil {
		return "", err
	}
	return "", errors.New("stderr closed before the listen line")
}

// pollState waits until GET /v1/jobs/{id} reports the wanted state.
func pollState(base, id, want string, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return err
		}
		var st struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if st.State == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s stuck in %q, want %q", id, st.State, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// pollResult waits until GET /v1/jobs/{id}/result answers 200 and returns
// the document.
func pollResult(base, id string, within time.Duration) ([]byte, error) {
	deadline := time.Now().Add(within)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
		if err != nil {
			return nil, err
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return b, nil
		case http.StatusAccepted:
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("job %s did not finish within %v", id, within)
			}
			time.Sleep(50 * time.Millisecond)
		default:
			return nil, fmt.Errorf("result: %s: %s", resp.Status, b)
		}
	}
}
