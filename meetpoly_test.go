package meetpoly

import (
	"context"
	"math/big"
	"testing"

	"meetpoly/internal/labels"
)

func TestFacadePiBoundAndCostModel(t *testing.T) {
	env := NewEnv(4, 1)
	b := PiBound(env, 3, 2, 9)
	if b.Sign() <= 0 {
		t.Error("PiBound non-positive")
	}
	m := CostModel(1, 3)
	if m.Pi(4, 2).Cmp(big.NewInt(0)) <= 0 {
		t.Error("CostModel Pi non-positive")
	}
}

// TestFacadeEnsureFor extends a catalog with EnsureFor and runs on the
// extended family through an engine that may not extend on its own: the
// run succeeds only if EnsureFor covered the graph.
func TestFacadeEnsureFor(t *testing.T) {
	env := NewEnv(4, 1)
	g := Complete(4)
	EnsureFor(env, g) // Complete(4) is already in the family: no-op
	shuffled := ShufflePorts(Star(4), 99)
	EnsureFor(env, shuffled)
	eng := NewEngine(WithCatalog(env.Catalog()), WithAutoExtend(false))
	res, err := eng.Run(context.Background(), Scenario{
		Kind: ScenarioRendezvous, GraphInstance: shuffled, AdversaryInstance: RandomAdversary(5),
		Starts: []int{0, 2}, Labels: []Label{1, 2}, Budget: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rendezvous.Met {
		t.Error("no meeting on extended-family graph")
	}
}

func TestFacadeAdversaries(t *testing.T) {
	if RoundRobin() == nil || Avoider() == nil || RandomAdversary(1) == nil {
		t.Error("nil adversary constructors")
	}
}

func TestFacadeTypesAlias(t *testing.T) {
	var l Label = 5
	if l.Len() != labels.Label(5).Len() {
		t.Error("Label alias broken")
	}
	if Version == "" {
		t.Error("empty version")
	}
}
