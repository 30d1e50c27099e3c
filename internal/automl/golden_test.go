package automl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/netml/alefb/internal/firewall"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/rng"
)

// searchGoldens pins the whole search at serve's search config on the
// firewall workload: the SHA-256 of AppendEnsemble's bytes for each
// search seed. Every member's fitted parameters, weight and holdout
// score, the ensemble score, the candidate count and the cache-hit count
// enter the hash, so any change to a training kernel that moves one bit
// of one model — or one draw of the rng stream — fails here.
var searchGoldens = map[uint64]string{
	1:   "ae7b72ebd4701c69d6c99fdc551875e558795abc7b8bb3c75417f8e8912dcc06",
	263: "dcea61c8102e88389a71ee62ff792b72565bf4b7d9057536f2a7494f5e5a5560",
	394: "fe8e560ecbe155077d7e4bfb17138954a59221d0760e4b4b6d5cf8e5289700f1",
}

// serveSearchConfig is the search configuration of the golden and of
// BenchmarkAutoMLServeSearch.
func serveSearchConfig(seed uint64, workers int) Config {
	return Config{MaxCandidates: 24, Seed: seed, Workers: workers}
}

// TestSearchGolden checks the search against the pinned hashes at
// Workers 1, and on seed 263 that Workers 2 selects the same members with
// the same weights and byte-identical models. The encoding carries the
// worker count, so the parallel run is compared member by member rather
// than by hash.
func TestSearchGolden(t *testing.T) {
	train := firewall.Generate(2000, rng.Derive(1, 1))
	for _, seed := range []uint64{1, 263, 394} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			serial, err := Run(train, serveSearchConfig(seed, 1))
			if err != nil {
				t.Fatal(err)
			}
			buf, err := AppendEnsemble(nil, serial)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf)
			if got := hex.EncodeToString(sum[:]); got != searchGoldens[seed] {
				t.Errorf("ensemble sha256 = %s, want %s", got, searchGoldens[seed])
			}
			if seed != 263 {
				return
			}
			par, err := Run(train, serveSearchConfig(seed, 2))
			if err != nil {
				t.Fatal(err)
			}
			assertMembersIdentical(t, serial, par)
		})
	}
}

// assertMembersIdentical requires the same members in the same order:
// equal weights and holdout scores, and byte-identical encoded models.
func assertMembersIdentical(t *testing.T, a, b *Ensemble) {
	t.Helper()
	if len(a.Members) != len(b.Members) {
		t.Fatalf("member count: %d vs %d", len(a.Members), len(b.Members))
	}
	if a.ValScore != b.ValScore || a.CacheHits != b.CacheHits || a.Evaluated != b.Evaluated {
		t.Errorf("search stats differ: %v/%d/%d vs %v/%d/%d",
			a.ValScore, a.CacheHits, a.Evaluated, b.ValScore, b.CacheHits, b.Evaluated)
	}
	for i := range a.Members {
		ma, mb := &a.Members[i], &b.Members[i]
		if ma.Weight != mb.Weight || ma.ValScore != mb.ValScore {
			t.Errorf("member %d: weight/score %v/%v vs %v/%v", i, ma.Weight, ma.ValScore, mb.Weight, mb.ValScore)
		}
		ba, err := ml.AppendModel(nil, ma.Model)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := ml.AppendModel(nil, mb.Model)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Errorf("member %d (%s): encoded models differ", i, ma.Spec)
		}
	}
}
