package cliconfig

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sample() Scenario {
	return Scenario{
		Seed:        9,
		Horizon:     Duration(12 * time.Minute),
		UEs:         16,
		Policy:      "pf",
		Workload:    "youtube",
		Network:     "lte",
		Gains:       "0.5:1.5",
		Cells:       4,
		MobilityMps: 20,
		X2Latency:   Duration(10 * time.Millisecond),
		Workers:     2,
		ThrottleBps: 280e3,
		LossRate:    0.02,
		Remedy: &Remedy{
			Interval:         Duration(2 * time.Second),
			ActionLatency:    Duration(100 * time.Millisecond),
			Cooldown:         Duration(10 * time.Second),
			MaxActionsPerUE:  4,
			EnergyPerActionJ: 0.15,
			DisableRRCRetune: true,
			Cells:            []int{0, 2},
		},
	}
}

// TestRoundTrip: a fully-populated scenario survives encode → decode
// byte-exactly, and durations render as human-readable strings.
func TestRoundTrip(t *testing.T) {
	in := sample()
	b, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"horizon": "12m0s"`) {
		t.Fatalf("horizon not encoded as a duration string:\n%s", b)
	}
	var out Scenario
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\nin:  %+v\nout: %+v", in, out)
	}
}

// TestLoadFileAndStdin: Load reads a file path, "-" reads stdin, "" is the
// zero scenario, and unknown fields are rejected loudly.
func TestLoadFileAndStdin(t *testing.T) {
	b, err := json.Marshal(sample())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scen.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	fromFile, err := Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	fromStdin, err := Load("-", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, fromStdin) || !reflect.DeepEqual(fromFile, sample()) {
		t.Fatalf("file/stdin loads diverged: %+v vs %+v", fromFile, fromStdin)
	}

	zero, err := Load("", nil)
	if err != nil || !reflect.DeepEqual(zero, Scenario{}) {
		t.Fatalf("Load(\"\") = %+v, %v", zero, err)
	}

	if _, err := Load("-", strings.NewReader(`{"uez": 4}`)); err == nil {
		t.Fatal("unknown field accepted silently")
	}
	// There is one analyzer, so the retired engine key is just unknown.
	if _, err := Load("-", strings.NewReader(`{"analyzer": "serial"}`)); err == nil ||
		!strings.Contains(err.Error(), `unknown field "analyzer"`) {
		t.Fatalf("retired analyzer key: err = %v, want an unknown-field error", err)
	}
	if _, err := Load("-", strings.NewReader(`{"horizon": true}`)); err == nil {
		t.Fatal("bad duration type accepted")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json"), nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestDurationForms: durations decode from strings and from bare
// nanosecond numbers.
func TestDurationForms(t *testing.T) {
	var s Scenario
	if err := json.Unmarshal([]byte(`{"horizon": "90s"}`), &s); err != nil {
		t.Fatal(err)
	}
	if time.Duration(s.Horizon) != 90*time.Second {
		t.Fatalf("horizon = %v", time.Duration(s.Horizon))
	}
	if err := json.Unmarshal([]byte(`{"x2_latency": 5000000}`), &s); err != nil {
		t.Fatal(err)
	}
	if time.Duration(s.X2Latency) != 5*time.Millisecond {
		t.Fatalf("x2 = %v", time.Duration(s.X2Latency))
	}
}

// TestPeekPath: every flag spelling the flag package accepts is found, and
// scanning stops at the terminator.
func TestPeekPath(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-config", "a.json"}, "a.json"},
		{[]string{"--config", "a.json"}, "a.json"},
		{[]string{"-config=a.json"}, "a.json"},
		{[]string{"--config=-"}, "-"},
		{[]string{"-ues", "8", "-config", "b.json", "-seed", "1"}, "b.json"},
		{[]string{"-ues", "8"}, ""},
		{[]string{"--", "-config", "a.json"}, ""},
		{nil, ""},
	}
	for _, c := range cases {
		if got := PeekPath(c.args); got != c.want {
			t.Errorf("PeekPath(%q) = %q, want %q", c.args, got, c.want)
		}
	}
}

// TestParamsMapping: the scenario maps onto experiment Params field for
// field, including the remedy spec.
func TestParamsMapping(t *testing.T) {
	p := sample().Params()
	if p.Horizon != 12*time.Minute || p.UEs != 16 || p.Cells != 4 ||
		p.SpeedMps != 20 || p.LossRate != 0.02 || p.ThrottleBps != 280e3 {
		t.Fatalf("params = %+v", p)
	}
	if p.Remedy == nil || !p.Remedy.DisableRRCRetune || p.Remedy.Interval != 2*time.Second {
		t.Fatalf("remedy spec = %+v", p.Remedy)
	}
	zero := Scenario{}.Params()
	if zero.Remedy != nil {
		t.Fatal("zero scenario produced a remedy spec")
	}
}
