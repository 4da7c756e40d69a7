package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"time"
)

// loadgenEnv, when set, makes the benchmark binary run as serve-open's load
// generator: it reads the plan file the variable names and prints what it
// observed as JSON. The generator runs in its own process so its timers and
// senders never wait behind the service's solver goroutines for a Go
// scheduler slot; the operating system schedules the two processes.
const loadgenEnv = "SAGBENCH_LOADGEN_PLAN"

// loadPlan is everything the generator sends: phases run back to back,
// each an open-loop schedule over at most Connections keep-alive
// connections.
type loadPlan struct {
	URL         string      `json:"url"`
	Connections int         `json:"connections"`
	Phases      []loadPhase `json:"phases"`
}

// loadPhase is one schedule. A request still queued Deadline after the
// phase began is never sent.
type loadPhase struct {
	Deadline time.Duration `json:"deadline"`
	Requests []loadReq     `json:"requests"`
}

type loadReq struct {
	Due  time.Duration   `json:"due"`
	Path string          `json:"path"`
	Body json.RawMessage `json:"body"`
}

// outcome is what the generator observed for one request.
type outcome struct {
	Sent    bool    `json:"sent"`
	Status  int     `json:"status,omitempty"`
	Body    []byte  `json:"body,omitempty"`
	Err     string  `json:"err,omitempty"`
	Latency float64 `json:"latency"` // from the request's due time to its response
	Service float64 `json:"service"` // from sending to the response
	Lag     float64 `json:"lag"`     // how late the generator queued it
}

// runLoadgen writes the plan to a file in dir, runs the generator process
// on it and returns its outcomes, one slice per phase.
func runLoadgen(ctx context.Context, dir string, plan *loadPlan) ([][]outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "loadplan-*.json")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	if err := json.NewEncoder(f).Encode(plan); err != nil {
		f.Close()
		return nil, fmt.Errorf("write load plan: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("write load plan: %w", err)
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), loadgenEnv+"="+f.Name())
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	var outs [][]outcome
	if err := json.Unmarshal(stdout.Bytes(), &outs); err != nil {
		return nil, fmt.Errorf("load generator output: %w", err)
	}
	if len(outs) != len(plan.Phases) {
		return nil, fmt.Errorf("load generator reported %d phases, planned %d", len(outs), len(plan.Phases))
	}
	return outs, nil
}

// loadgenMain is the generator process: it runs the plan at path and
// prints the outcomes.
func loadgenMain(path string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 2
	}
	var plan loadPlan
	if err := json.Unmarshal(data, &plan); err != nil {
		fmt.Fprintln(stderr, "loadgen: parse plan:", err)
		return 2
	}
	tr := &http.Transport{MaxConnsPerHost: plan.Connections, MaxIdleConnsPerHost: plan.Connections}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	// The parent kills this process if it gives up; nothing else cancels.
	ctx := context.Background()
	outs := make([][]outcome, len(plan.Phases))
	for i, ph := range plan.Phases {
		outs[i] = drive(ctx, client, plan.URL, plan.Connections, ph)
	}
	if err := json.NewEncoder(stdout).Encode(outs); err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 2
	}
	return 0
}

// drive runs one open-loop phase: every request is queued at its due time
// and sent by the first of senders free senders, one per connection.
func drive(ctx context.Context, client *http.Client, url string, senders int, ph loadPhase) []outcome {
	out := make([]outcome, len(ph.Requests))
	lags := make([]float64, len(ph.Requests))
	// Sized to the number of sends, so queueing a due request never waits
	// for a sender: the backlog is the channel's length.
	queue := make(chan int, len(ph.Requests))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if time.Since(start) > ph.Deadline {
					continue
				}
				r := ph.Requests[i]
				sent := time.Now()
				status, body, err := post(ctx, client, url+r.Path, r.Body)
				done := time.Now()
				out[i] = outcome{
					Sent: true, Status: status, Body: body,
					Latency: done.Sub(start.Add(r.Due)).Seconds(),
					Service: done.Sub(sent).Seconds(),
				}
				if err != nil {
					out[i].Err = err.Error()
				}
			}
		}()
	}
	for i, r := range ph.Requests {
		time.Sleep(time.Until(start.Add(r.Due)))
		lags[i] = time.Since(start.Add(r.Due)).Seconds()
		queue <- i
	}
	close(queue)
	wg.Wait()
	for i := range out {
		out[i].Lag = lags[i]
	}
	return out
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}
