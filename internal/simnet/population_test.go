package simnet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"decoydb/internal/core"
	"decoydb/internal/geoip"
)

// populationDigest is the SHA-256 of seed 1's population, as JSON, at
// the default scale and window. Speed-ups to BuildPopulation must leave
// every actor, address and schedule as they were, so the digest stays.
const populationDigest = "e91a282d958b4545224cf08f876a25a5a06235b9ab1c03f180e4ba3896e0aff8"

func TestBuildPopulationDigest(t *testing.T) {
	pop, err := BuildPopulation(1, DefaultScale, core.ExperimentDays, geoip.Default())
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(pop)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	if got := hex.EncodeToString(sum[:]); got != populationDigest {
		t.Fatalf("population digest = %s, want %s", got, populationDigest)
	}
}

// BenchmarkBuildPopulation times one build of the default population,
// the part of a collector's or simulator's start that precedes its first
// event.
func BenchmarkBuildPopulation(b *testing.B) {
	db := geoip.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildPopulation(1, DefaultScale, core.ExperimentDays, db); err != nil {
			b.Fatal(err)
		}
	}
}
