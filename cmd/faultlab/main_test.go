package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// mainArgsEnv, when set, makes the test binary run main with these
// space-separated arguments instead of the tests, so exit codes can be
// observed from a child process.
const mainArgsEnv = "FAULTLAB_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"faultlab"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runJSON runs the command and decodes its stdout as one JSON object.
func runJSON(t *testing.T, args ...string) map[string]json.RawMessage {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("faultlab %v: %v", args, err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("faultlab %v: stdout is not one JSON object: %v", args, err)
	}
	return doc
}

// keys returns the sorted top-level keys of a JSON object.
func keys(doc map[string]json.RawMessage) string {
	var ks []string
	for k := range doc {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func decode(t *testing.T, raw json.RawMessage, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
}

func TestModeFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-campaign", "-repair"}, "mutually exclusive"},
		{[]string{"-json"}, "-json requires -campaign, -repair or -cluster"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("faultlab %v: error %v, want one containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("faultlab %v: wrote %q before failing", tc.args, out.String())
		}
	}
}

func TestMainExitsOneOnError(t *testing.T) {
	for _, args := range []string{"-campaign -repair", "-json"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("faultlab %s: exit %v, want status 1", args, err)
		}
		if !strings.HasPrefix(stderr.String(), "faultlab: ") {
			t.Errorf("faultlab %s: stderr %q, want a faultlab: error line", args, stderr.String())
		}
	}
}

func TestCampaignJSONShape(t *testing.T) {
	doc := runJSON(t, "-campaign", "-json", "-events", "200")
	if got, want := keys(doc), "campaigns,events,metrics,seed"; got != want {
		t.Fatalf("top-level keys %s, want %s", got, want)
	}
	var events int
	decode(t, doc["events"], &events)
	if events != 200 {
		t.Errorf("events = %d, want 200", events)
	}
	var campaigns []struct {
		Mode       string
		Events     int
		Offered    int
		Processed  int
		FinalState string
	}
	decode(t, doc["campaigns"], &campaigns)
	var modes []string
	for _, c := range campaigns {
		modes = append(modes, c.Mode)
		if c.Events != 200 || c.Offered == 0 || c.Processed == 0 || c.FinalState == "" {
			t.Errorf("campaign %s: %+v", c.Mode, c)
		}
	}
	if got, want := strings.Join(modes, ","), "supervised-checkpoint,supervised-cold,unsupervised"; got != want {
		t.Errorf("campaign modes %s, want %s", got, want)
	}
	var snap struct {
		Counters   map[string]uint64          `json:"counters"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	decode(t, doc["metrics"], &snap)
	if got := snap.Counters["faultlab_campaign_slots_total"]; got != 3*200 {
		t.Errorf("faultlab_campaign_slots_total = %d, want %d (three modes x 200 slots)", got, 3*200)
	}
	for _, name := range []string{"faultlab_wire_faults_total", "supervise_restarts_total"} {
		if snap.Counters[name] == 0 {
			t.Errorf("metrics snapshot lacks %s: %v", name, snap.Counters)
		}
	}
	if len(snap.Histograms) == 0 {
		t.Error("metrics snapshot has no restore-timing histograms")
	}
}

func TestClusterJSONShape(t *testing.T) {
	doc := runJSON(t, "-cluster", "-json", "-events", "200")
	if got, want := keys(doc), "events,identical,metrics,modes,replicas,seed"; got != want {
		t.Fatalf("top-level keys %s, want %s", got, want)
	}
	var identical bool
	decode(t, doc["identical"], &identical)
	if !identical {
		t.Error("identical = false on a run that returned success")
	}
	var modes []struct {
		Mode                string
		Offered             int
		LogLen              int
		Fingerprint         string
		ReplicaFingerprints []string
	}
	decode(t, doc["modes"], &modes)
	if len(modes) != 3 {
		t.Fatalf("%d modes, want 3", len(modes))
	}
	var names []string
	for _, m := range modes {
		names = append(names, m.Mode)
		if m.Offered == 0 || m.LogLen == 0 || m.Fingerprint == "" {
			t.Errorf("mode %s: %+v", m.Mode, m)
		}
	}
	if got, want := strings.Join(names, ","), "cluster,baseline-single,unfaulted"; got != want {
		t.Errorf("modes %s, want %s", got, want)
	}
	cl, truth := modes[0], modes[2]
	if cl.Fingerprint != truth.Fingerprint {
		t.Errorf("cluster fingerprint %s != unfaulted %s", cl.Fingerprint, truth.Fingerprint)
	}
	if len(cl.ReplicaFingerprints) != 3 {
		t.Errorf("%d replica fingerprints, want 3", len(cl.ReplicaFingerprints))
	}
	for _, fp := range cl.ReplicaFingerprints {
		if fp != cl.Fingerprint {
			t.Errorf("replica fingerprint %s != cluster %s", fp, cl.Fingerprint)
		}
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	decode(t, doc["metrics"], &snap)
	if snap.Counters["cluster_failovers_total"] == 0 {
		t.Errorf("metrics snapshot lacks failovers: %v", snap.Counters)
	}
}
