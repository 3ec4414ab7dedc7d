package main

import (
	"net/http"
	"testing"

	"offloadnn/internal/cluster"
	"offloadnn/internal/serve"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		status int
		code   string
		want   verdict
	}{
		{http.StatusOK, "", verdictOK},
		{http.StatusBadGateway, cluster.CodeNodeUnreachable, verdictFailover},
		{http.StatusServiceUnavailable, serve.CodeOverload, verdictShed},
		{http.StatusGatewayTimeout, serve.CodeDeadline, verdictLate},
		{http.StatusGatewayTimeout, serve.CodeDeadlineHop, verdictHopShed},
		{http.StatusTooManyRequests, serve.CodeOverRate, verdictLimited},
		{http.StatusTooManyRequests, serve.CodeNotAdmitted, verdictLimited},
		{http.StatusNotFound, serve.CodeUnknownTask, verdictMissing},
		// A relay failure inside a split pipeline is not a member loss.
		{http.StatusBadGateway, serve.CodeBackend, verdictOther},
		{http.StatusServiceUnavailable, "", verdictOther},
		{http.StatusInternalServerError, serve.CodeBackend, verdictOther},
	} {
		if got := classify(tc.status, tc.code); got != tc.want {
			t.Errorf("classify(%d, %q) = %s, want %s", tc.status, tc.code, verdictCols[got], verdictCols[tc.want])
		}
	}
}
