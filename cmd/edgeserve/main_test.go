package main

import "testing"

func TestAdvertiseURL(t *testing.T) {
	for _, tc := range []struct {
		addr, want string
	}{
		{":8081", "http://127.0.0.1:8081"},
		{"10.0.0.5:8081", "http://10.0.0.5:8081"},
		{"[::1]:8081", "http://[::1]:8081"},
		{"", "http://127.0.0.1:80"}, // net/http's default listen address
	} {
		got, err := advertiseURL(tc.addr)
		if err != nil {
			t.Fatalf("advertiseURL(%q): %v", tc.addr, err)
		}
		if got != tc.want {
			t.Fatalf("advertiseURL(%q) = %q, want %q", tc.addr, got, tc.want)
		}
	}
	if _, err := advertiseURL("8081"); err == nil {
		t.Fatal("advertiseURL(\"8081\"): want an error for an address without a port")
	}
}
