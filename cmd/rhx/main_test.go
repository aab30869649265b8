package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(nil)
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	// ?wait=1 and SSE responses stay open for a whole grid run.
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout/WriteTimeout = %v/%v, want none", srv.ReadTimeout, srv.WriteTimeout)
	}
}

// TestSetOverEmittedSpec pins `rhx spec -name X > f.json` then
// `-spec f.json -set k=v` to the content address of `-name X -set k=v`.
func TestSetOverEmittedSpec(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		sets []string
	}{
		{"attack", []string{"rows=1024", `mechanisms=["None","Ideal"]`}},
		{"fig5", []string{"scale=tiny"}},
		{"trr-dodge", []string{"hc=512", "duty_cycles=[0,0.25]"}},
	} {
		tmpl, err := loadSpec("", tc.name, 7, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		data, err := tmpl.Encode()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, err := loadSpec(path, "", 0, tc.sets, "")
		if err != nil {
			t.Fatal(err)
		}
		fromName, err := loadSpec("", tc.name, 7, tc.sets, "")
		if err != nil {
			t.Fatal(err)
		}
		h1, _ := fromFile.SpecHash()
		h2, _ := fromName.SpecHash()
		if h1 != h2 || h1 == "" {
			t.Errorf("%s: -spec file -set hashes %s, -name -set hashes %s", tc.name, h1, h2)
		}
		if h0, _ := tmpl.SpecHash(); h0 == h1 {
			t.Errorf("%s: -set %v did not change the content address", tc.name, tc.sets)
		}
	}
}
