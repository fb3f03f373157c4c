package main

import "testing"

func TestCheckBody(t *testing.T) {
	get := trRequest{kind: kindGet, want: `"key":"ONOS-7"`}
	for _, c := range []struct {
		req  trRequest
		i    int
		body string
		ok   bool
	}{
		{get, 0, `{"key":"ONOS-7","fields":{}}` + "\n", true},
		{get, 0, `{"key":"ONOS-8","fields":{}}` + "\n", false},
		{get, 0, `{"key":"ONOS-7","fields":{` + "\n", false},
		{get, 1, `{"key":"ONOS-8","fields":{}}` + "\n", true}, // framing only
		{get, 1, `[{"key":"ONOS-7"}]` + "\n", false},
		{trRequest{kind: kindList}, 0, `[{"number":3}]` + "\n", true},
		{trRequest{kind: kindList}, 0, `[]` + "\n", false},
		{trRequest{kind: kindSearch}, 0, `{"total":0,"issues":null}` + "\n", false},
		{trRequest{kind: kindIngest}, 0, `{"ingested":1}` + "\n", true},
		{trRequest{kind: kindIngest}, 0, `{"ingested":0}` + "\n", false},
	} {
		if err := checkBody(c.req, c.i, []byte(c.body)); (err == nil) != c.ok {
			t.Errorf("checkBody(%d, %q) = %v, want ok=%v", c.req.kind, c.body, err, c.ok)
		}
	}
}
