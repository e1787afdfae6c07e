package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"prefcolor/internal/cluster/sim"
	"prefcolor/internal/server"
	"prefcolor/internal/server/loadgen"
)

func TestRunBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-nosuch"}, &out, &errb); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
}

func TestLoadModeBadMachine(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-load", "-machine", "vax"}, &out, &errb); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown machine") {
		t.Errorf("stderr %q", errb.String())
	}
}

func TestLoadModeBadCorpus(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-load", "-corpus", "nosuch"}, &out, &errb); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
}

func TestParseReplicaSpec(t *testing.T) {
	reps, err := parseReplicaSpec("r0=localhost:8401, r1=http://host:8402")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].BaseURL != "http://localhost:8401" ||
		reps[1].BaseURL != "http://host:8402" || reps[1].ID != "r1" {
		t.Errorf("parsed %+v", reps)
	}
	for _, bad := range []string{"", "no-equals", ","} {
		if _, err := parseReplicaSpec(bad); err == nil {
			t.Errorf("spec %q: want error", bad)
		}
	}
}

func TestClusterModeBadRouterSpec(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-router", "garbage"}, &out, &errb); code != 1 {
		t.Errorf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
}

func TestSimModeBadSchedule(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-sim", "-schedule", "explode@9:0"}, &out, &errb); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown action") {
		t.Errorf("stderr %q", errb.String())
	}
}

// TestSimModeEndToEnd runs a small fault-free simulation round through
// the CLI and checks the result it prints.
func TestSimModeEndToEnd(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-sim", "-seed", "1", "-requests", "60", "-corpus", "compress",
		"-cache", "4", "-schedule", "none",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var res sim.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.OK != 60 {
		t.Fatalf("result = %+v, want 60 ok", res)
	}
	if res.BaselineRPS <= 0 || res.Speedup <= 0 {
		t.Errorf("baseline %.1f speedup %.2f — baseline phase missing",
			res.BaselineRPS, res.Speedup)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
}

// TestLoadModeEndToEnd runs the load mode in-process against a live
// server and checks the exit code and the report on stdout.
func TestLoadModeEndToEnd(t *testing.T) {
	s := server.New(server.Config{Workers: 2, QueueSize: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	var out, errb bytes.Buffer
	code := run([]string{
		"-load", "-addr", ts.URL, "-corpus", "compress",
		"-requests", "30", "-duration", "30s", "-concurrency", "2",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var rep loadgen.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 30 {
		t.Errorf("report requests = %d, want 30", rep.Requests)
	}
	if rep.OK == 0 || rep.Errors != 0 {
		t.Errorf("ok=%d errors=%d", rep.OK, rep.Errors)
	}
}
