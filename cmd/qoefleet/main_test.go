package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/qoestore"
)

func runErr(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errw bytes.Buffer
	err := run(args, &out, &errw)
	return out.String(), err
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, ""},
		{"retired analyzer flag", []string{"-analyzer", "serial"}, "flag provided but not defined"},
		{"positional args", []string{"extra"}, "unexpected arguments"},
		{"zero ues", []string{"-ues", "0"}, "-ues must be positive"},
		{"negative horizon", []string{"-horizon", "-1s"}, "-horizon must be positive"},
		{"bad policy", []string{"-policy", "fifo"}, ""},
		{"bad workload", []string{"-workload", "gaming"}, ""},
		{"bad network", []string{"-network", "5g"}, "unknown network"},
		{"bad gains", []string{"-gains", "fast"}, "bad -gains"},
		{"negative gains", []string{"-gains", "-1:2"}, "bad -gains"},
		{"zero cells", []string{"-cells", "0"}, "-cells must be at least 1"},
		{"negative mobility", []string{"-mobility", "-3"}, "-mobility must not be negative"},
		{"mobility without cells", []string{"-mobility", "10"}, "-mobility needs a multi-cell topology"},
		{"negative x2", []string{"-cells", "2", "-x2", "-1ms"}, "-x2 must not be negative"},
		{"x2 without cells", []string{"-x2", "5ms"}, "-x2 needs a multi-cell topology"},
		{"workers without cells", []string{"-workers", "2"}, "-workers needs a multi-cell topology"},
		{"negative throttle", []string{"-throttle", "-1"}, "-throttle must not be negative"},
		{"remedy-observe without remedy", []string{"-remedy-observe"}, "-remedy-observe requires -remedy"},
		{"emit-source without emit", []string{"-emit-source", "x"}, "-emit-source requires -emit"},
		{"missing config", []string{"-config", "/no/such/scen.json"}, ""},
	}
	for _, c := range cases {
		_, err := runErr(t, c.args...)
		if err == nil {
			t.Fatalf("%s: run accepted %q", c.name, c.args)
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error = %q, want %q in it", c.name, err, c.want)
		}
	}
}

// TestRunConfigFileProvidesDefaults: a -config file supplies the scenario,
// explicit flags override individual values, and "-config -" reads the same
// scenario from stdin.
func TestRunConfigFileProvidesDefaults(t *testing.T) {
	cfgJSON := `{"seed": 5, "ues": 2, "horizon": "45s", "workload": "browse"}`
	path := filepath.Join(t.TempDir(), "scen.json")
	if err := os.WriteFile(path, []byte(cfgJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	fromFile, err := runErr(t, "-config", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fromFile, "2 UE(s)") || !strings.Contains(fromFile, "seed 5") {
		t.Fatalf("config values not applied:\n%s", fromFile)
	}

	over, err := runErr(t, "-config", path, "-ues", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(over, "3 UE(s)") || !strings.Contains(over, "seed 5") {
		t.Fatalf("-ues did not override the file (or clobbered its seed):\n%s", over)
	}

	old := stdin
	stdin = strings.NewReader(cfgJSON)
	defer func() { stdin = old }()
	fromStdin, err := runErr(t, "-config", "-")
	if err != nil {
		t.Fatal(err)
	}
	if fromStdin != fromFile {
		t.Fatalf("stdin config diverged from file config:\n--- file ---\n%s\n--- stdin ---\n%s", fromFile, fromStdin)
	}
}

// TestRunConfigRemedy: a remedy block in the config turns the controller on
// (the report grows its Remediation section); -remedy=false on the command
// line overrides the file and turns it back off.
func TestRunConfigRemedy(t *testing.T) {
	cfgJSON := `{"seed": 7, "ues": 3, "horizon": "4m", "workload": "youtube", "throttle_bps": 280000, "remedy": {}}`
	path := filepath.Join(t.TempDir(), "scen.json")
	if err := os.WriteFile(path, []byte(cfgJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	on, err := runErr(t, "-config", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(on, "== Remediation:") {
		t.Fatalf("config remedy block did not enable the controller:\n%s", on)
	}
	off, err := runErr(t, "-config", path, "-remedy=false")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(off, "== Remediation:") {
		t.Fatalf("-remedy=false did not override the config file:\n%s", off)
	}
}

func TestRunHelpIsNotAnInternalError(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-h"}, &out, &errw); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
}

func TestRunUnwritableTracePathFailsCleanly(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "trace.json")
	_, err := runErr(t, "-ues", "1", "-horizon", "45s", "-trace", bad)
	if err == nil {
		t.Fatal("unwritable -trace path accepted")
	}
	if strings.Contains(err.Error(), "internal error") {
		t.Fatalf("file error surfaced as a panic: %v", err)
	}
}

// TestRunEmitsIntoLiveCollector is the end-to-end pipe the README
// advertises: a small fleet run streams its QoE events into a real
// qoestore-backed HTTP collector, and the events are queryable afterwards.
func TestRunEmitsIntoLiveCollector(t *testing.T) {
	s, err := qoestore.Open(t.TempDir(), qoestore.Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(qoestore.NewServer(s, qoestore.ServerConfig{}).Handler())
	defer ts.Close()

	out, err := runErr(t, "-ues", "2", "-horizon", "90s", "-emit", ts.URL, "-emit-source", "itest")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "emitted") {
		t.Fatalf("stdout missing emit summary:\n%s", out)
	}
	res, err := s.Run(qoestore.Query{Metric: "rrc_energy_j"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 {
		t.Fatalf("collector holds %d per-UE energy events, want 2", res.Count)
	}
}

// TestRunEmitToRejectingCollectorFails: a collector that rejects every
// batch (permanent 4xx) must surface as a CLI error, not a silent success.
func TestRunEmitToRejectingCollectorFails(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusBadRequest)
	}))
	defer ts.Close()
	_, err := runErr(t, "-ues", "1", "-horizon", "45s", "-emit", ts.URL)
	if err == nil {
		t.Fatal("run succeeded despite delivering nothing")
	}
	if !strings.Contains(err.Error(), "emitted 0 of") {
		t.Fatalf("error = %q, want undelivered-events report", err)
	}
}

// TestRunStructuredLogs: -log-level info emits JSON records on stderr while
// the human-readable report stays on stdout.
func TestRunStructuredLogs(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-ues", "1", "-horizon", "45s", "-log-level", "info"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fleet") && out.Len() == 0 {
		t.Fatal("report missing from stdout")
	}
	dec := json.NewDecoder(&errw)
	msgs := map[string]bool{}
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("stderr is not a JSON record stream: %v", err)
		}
		if m, _ := rec["msg"].(string); m != "" {
			msgs[m] = true
		}
	}
	for _, want := range []string{"fleet built", "run complete"} {
		if !msgs[want] {
			t.Fatalf("no %q log record; got %v", want, msgs)
		}
	}
}

// TestRunMultiCellMobility: the sharded path through the CLI — a multi-cell
// mobile fleet renders the per-cell report columns and is byte-identical
// across worker counts.
func TestRunMultiCellMobility(t *testing.T) {
	args := func(workers string) []string {
		return []string{"-ues", "6", "-cells", "4", "-mobility", "20", "-policy", "pf",
			"-horizon", "90s", "-seed", "3", "-workers", workers}
	}
	serial, err := runErr(t, args("1")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(serial, "across 4 cells") || !strings.Contains(serial, "Cell") {
		t.Fatalf("multi-cell report columns missing:\n%s", serial)
	}
	parallel, err := runErr(t, args("4")...)
	if err != nil {
		t.Fatal(err)
	}
	if parallel != serial {
		t.Fatalf("-workers changed the report:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", serial, parallel)
	}
}

func TestRunBadLogLevel(t *testing.T) {
	if _, err := runErr(t, "-ues", "1", "-log-level", "loud"); err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Fatalf("bad -log-level accepted: %v", err)
	}
}
