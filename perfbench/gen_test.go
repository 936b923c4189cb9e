package main

import (
	"reflect"
	"testing"

	"repro/internal/coll"
)

func TestServeStreamDeterministic(t *testing.T) {
	a, b := serveStream(7), serveStream(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request streams")
	}
	if reflect.DeepEqual(a, serveStream(8)) {
		t.Fatal("different seeds gave the same request stream")
	}
	if len(a) != serveRequestsPerRound {
		t.Fatalf("stream has %d requests, want %d", len(a), serveRequestsPerRound)
	}
	perTopo := make([]int, len(servePopularity))
	for _, q := range a {
		perTopo[q.Topo]++
	}
	for i := 1; i < len(perTopo); i++ {
		if perTopo[i] > perTopo[i-1] {
			t.Errorf("popularity not skewed: %v", perTopo)
		}
	}
}

func TestExecSuiteDeterministic(t *testing.T) {
	a := execSuite(7)
	if !reflect.DeepEqual(a, execSuite(7)) {
		t.Fatal("same seed gave different exec suites")
	}
	if reflect.DeepEqual(a, execSuite(8)) {
		t.Fatal("different seeds gave the same exec suite")
	}
	covered := map[coll.Kind]map[int]bool{}
	for _, op := range a {
		if covered[op.Kind] == nil {
			covered[op.Kind] = map[int]bool{}
		}
		covered[op.Kind][op.M] = true
	}
	for _, k := range suiteKinds {
		for _, m := range execSizes {
			if !covered[k][m] {
				t.Errorf("suite misses %v at %d", k, m)
			}
		}
	}
}

func TestColdSeedsDeterministic(t *testing.T) {
	if !reflect.DeepEqual(coldSeeds(7), coldSeeds(7)) {
		t.Fatal("same seed gave different build seeds")
	}
	if reflect.DeepEqual(coldSeeds(7), coldSeeds(8)) {
		t.Fatal("different seeds gave the same build seeds")
	}
}
