package main

import "testing"

func TestParseMix(t *testing.T) {
	cases := []struct {
		in         string
		kw, bw, gw float64
		wantErr    bool
	}{
		{in: "kernel=1", kw: 1},
		{in: "kernel=0.7,batch=0.2,graph=0.1", kw: 0.7, bw: 0.2, gw: 0.1},
		{in: " batch=2 , graph=1 ", bw: 2, gw: 1},
		{in: "kernel=0,batch=0,graph=0", wantErr: true},
		{in: "", wantErr: true},
		{in: "kernel=-1", wantErr: true},
		{in: "kernel=x", wantErr: true},
		{in: "kernel", wantErr: true},
		{in: "tensor=1", wantErr: true},
	}
	for _, tc := range cases {
		kw, bw, gw, err := parseMix(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseMix(%q): expected error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseMix(%q): %v", tc.in, err)
			continue
		}
		if kw != tc.kw || bw != tc.bw || gw != tc.gw {
			t.Errorf("parseMix(%q) = %g/%g/%g, want %g/%g/%g", tc.in, kw, bw, gw, tc.kw, tc.bw, tc.gw)
		}
	}
}
