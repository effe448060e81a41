package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestRunScenarioDigests pins qoedoctor's stdout, byte for byte, for each
// built-in scenario at -reps 1 and for one impaired, throttled 3G YouTube
// run with the metrics table on. A run is a pure function of its flags, so
// a digest recorded once catches any change to what the user reads.
func TestRunScenarioDigests(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"facebook-post", []string{"-scenario", "facebook-post", "-reps", "1"},
			"e3abd328e6ec2613175be61eb75022cb41eb6316908de2c9ceba6739ea09349f"},
		{"facebook-update", []string{"-scenario", "facebook-update", "-reps", "1"},
			"bd3886cb0b1062c2f9968501abdfdd48dd3ead668156fd9fd01c36237f25c551"},
		{"youtube", []string{"-scenario", "youtube", "-reps", "1"},
			"99b5e410db9cce6e398f2680ede31577a68cbee7528de257742520d9941c88ad"},
		{"browse", []string{"-scenario", "browse", "-reps", "1"},
			"5f665f51886a661bccf67fd373da4ca1651535f9208b208688405cb0801fe321"},
		{"youtube-faulted", []string{"-scenario", "youtube", "-reps", "1", "-network", "3g",
			"-loss", "0.02", "-loss-burst", "4", "-outage-at", "10s", "-outage-dur", "2s",
			"-throttle", "300000", "-report"},
			"5f31bf656ab225fab3a5967b00a47e411dcff95e1f2509adb5a30669b5d28c50"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if err := run(c.args, &out, &errw); err != nil {
				t.Fatalf("run %q: %v (stderr %q)", c.args, err, errw.String())
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("stdout digest %s, want %s; output:\n%s", got, c.want, out.String())
			}
		})
	}
}

// TestRunRejectsBadFlags: flag values that would crash the run, or run it
// and print a void result, exit with an error instead.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative reps", []string{"-reps", "-1", "-scenario", "browse"}, "-reps must be at least 1"},
		{"zero reps", []string{"-reps", "0"}, "-reps must be at least 1"},
		{"negative loss", []string{"-loss", "-0.5"}, "-loss is a rate"},
		{"loss above 1", []string{"-loss", "1.5", "-loss-burst", "4"}, "-loss is a rate"},
		{"loss of 1", []string{"-loss", "1"}, "-loss is a rate"},
		{"outage before zero", []string{"-scenario", "browse", "-outage-at", "-5s", "-outage-dur", "1s"}, "outage"},
		{"negative throttle", []string{"-throttle", "-1"}, "negative throttle"},
		{"bad network", []string{"-network", "5g"}, "unknown network"},
		{"bad scenario", []string{"-scenario", "gaming"}, "unknown scenario"},
		{"positional args", []string{"extra"}, "unexpected arguments"},
		{"missing spec", []string{"-spec", "no-such-spec.json"}, "no-such-spec.json"},
		{"unknown flag", []string{"-bogus"}, ""},
	}
	for _, c := range cases {
		var out, errw bytes.Buffer
		err := run(c.args, &out, &errw)
		if err == nil {
			t.Errorf("%s: run accepted %q", c.name, c.args)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %q, want %q in it", c.name, err, c.want)
		}
		if strings.Contains(err.Error(), "internal error") {
			t.Errorf("%s: %q panicked: %v", c.name, c.args, err)
		}
	}
}
