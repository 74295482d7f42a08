package perturb

import (
	"fmt"
	"math/rand"
	"testing"

	"modelhub/internal/dnn"
)

// residualDef builds a skip-connection model covering both merge kinds.
func residualDef() *dnn.NetDef {
	return &dnn.NetDef{
		Name: "res", InC: 1, InH: 6, InW: 6, Labels: 3,
		Nodes: []dnn.LayerSpec{
			{Name: "conv1", Kind: dnn.KindConv, Out: 3, K: 3, Pad: 1},
			{Name: "conv2", Kind: dnn.KindConv, Out: 3, K: 3, Pad: 1},
			{Name: "relu2", Kind: dnn.KindReLU},
			{Name: "add", Kind: dnn.KindAdd},
			{Name: "branch", Kind: dnn.KindConv, Out: 2, K: 1},
			{Name: "cat", Kind: dnn.KindConcat},
			{Name: "ip", Kind: dnn.KindFull, Out: 3},
			{Name: "prob", Kind: dnn.KindSoftmax},
		},
		Edges: []dnn.Edge{
			{From: "conv1", To: "conv2"},
			{From: "conv2", To: "relu2"},
			{From: "conv1", To: "add"},
			{From: "relu2", To: "add"},
			{From: "add", To: "branch"},
			{From: "add", To: "cat"},
			{From: "branch", To: "cat"},
			{From: "cat", To: "ip"},
			{From: "ip", To: "prob"},
		},
	}
}

// With exact bounds, the interval DAG evaluator's bounds strictly contain
// the DNN DAG executor's logits and are narrow.
func TestDAGExactBoundsMatchForward(t *testing.T) {
	def := residualDef()
	n, err := dnn.Build(def, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	in := randIn(2, dnn.Shape{C: 1, H: 6, W: 6})
	lo, hi, err := ev.Forward(in, ExactWeights(n.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	checkExactBounds(t, lo, hi, n.Logits(in).Data)
}

// Interval soundness through merge nodes: the true logits stay inside the
// interval output at every byte-plane prefix, with no slack.
func TestDAGIntervalSoundness(t *testing.T) {
	def := residualDef()
	n, err := dnn.Build(def, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(n.Snapshot())
	in := randIn(4, dnn.Shape{C: 1, H: 6, W: 6})
	want := n.Logits(in).Data
	for prefix := 1; prefix <= 4; prefix++ {
		lo, hi, err := ev.Forward(in, boundsAt(t, def, src, prefix))
		if err != nil {
			t.Fatal(err)
		}
		checkContains(t, fmt.Sprintf("prefix %d", prefix), lo, hi, want)
	}
}

// Progressive evaluation works end to end on DAG models.
func TestDAGProgressive(t *testing.T) {
	def := residualDef()
	n, err := dnn.Build(def, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(n.Snapshot())
	for seed := int64(0); seed < 10; seed++ {
		in := randIn(6+seed, dnn.Shape{C: 1, H: 6, W: 6})
		res, err := Progressive(ev, src, in, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := n.Predict(in); res.Labels[0] != want {
			t.Fatalf("progressive label %d != full %d", res.Labels[0], want)
		}
	}
}

func TestDAGEvaluatorRejectsMultiSink(t *testing.T) {
	def := residualDef()
	def.Nodes = append(def.Nodes, dnn.LayerSpec{Name: "stray", Kind: dnn.KindReLU})
	def.Edges = append(def.Edges, dnn.Edge{From: "add", To: "stray"})
	if _, err := NewEvaluator(def); err == nil {
		t.Fatal("two sinks must be rejected")
	}
}
