package list

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func keysOf(l *List) []uint64 {
	keys := make([]uint64, 0, l.len)
	for n := l.root.next; n != &l.root; n = n.next {
		keys = append(keys, n.Key)
	}
	return keys
}

// pushBack links n at the tail, to build a list in key order.
func pushBack(l *List, n *Node) { l.insert(n, l.root.prev) }

func TestEmptyList(t *testing.T) {
	l := New()
	if l.Len() != 0 || l.Back() != nil {
		t.Errorf("empty list: Len=%d Back=%v", l.Len(), l.Back())
	}
	if l.PopBack() != nil {
		t.Error("pop from empty list should return nil")
	}
}

func TestPushOrder(t *testing.T) {
	l := New()
	for i := uint64(1); i <= 3; i++ {
		l.PushFront(&Node{Key: i})
	}
	if got, want := keysOf(l), []uint64{3, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("PushFront order = %v, want %v", got, want)
	}
}

func TestMoveToFront(t *testing.T) {
	l := New()
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = &Node{Key: uint64(i)}
		pushBack(l, nodes[i])
	}
	l.MoveToFront(nodes[2])
	if got, want := keysOf(l), []uint64{2, 0, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("after MoveToFront = %v, want %v", got, want)
	}
	l.MoveToFront(nodes[2]) // already front: no-op
	if got, want := keysOf(l), []uint64{2, 0, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("after second MoveToFront = %v, want %v", got, want)
	}
}

func TestRemoveAndPop(t *testing.T) {
	l := New()
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = &Node{Key: uint64(i)}
		pushBack(l, nodes[i])
	}
	l.Remove(nodes[1])
	if nodes[1].InList() {
		t.Error("removed node still reports InList")
	}
	if got, want := keysOf(l), []uint64{0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("after Remove = %v, want %v", got, want)
	}
	if n := l.PopBack(); n == nil || n.Key != 2 {
		t.Errorf("PopBack = %v, want key 2", n)
	}
	if n := l.PopBack(); n == nil || n.Key != 0 {
		t.Errorf("second PopBack = %v, want key 0", n)
	}
	if l.Len() != 0 {
		t.Errorf("Len = %d, want 0", l.Len())
	}
}

func TestNextPrev(t *testing.T) {
	l := New()
	a, b := &Node{Key: 1}, &Node{Key: 2}
	pushBack(l, a)
	pushBack(l, b)
	if a.next != b || b.Prev() != a || a.Prev() != nil || b.next != &l.root {
		t.Error("next/Prev navigation wrong")
	}
	detached := &Node{Key: 3}
	if detached.next != nil || detached.Prev() != nil {
		t.Error("detached node should have nil neighbors")
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	l, other := New(), New()
	n := &Node{Key: 1}
	pushBack(l, n)
	mustPanic("double insert", func() { other.PushFront(n) })
	mustPanic("cross remove", func() { other.Remove(n) })
	mustPanic("cross move", func() { other.MoveToFront(n) })
}

// TestQuickModelCheck drives the list with random operations and compares
// against a slice-based model.
func TestQuickModelCheck(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New()
		var model []uint64
		nodes := map[uint64]*Node{}
		nextKey := uint64(0)
		for i := 0; i < int(steps); i++ {
			switch op := rng.Intn(5); {
			case op == 0: // push front
				n := &Node{Key: nextKey}
				nodes[nextKey] = n
				l.PushFront(n)
				model = append([]uint64{nextKey}, model...)
				nextKey++
			case op == 1: // push back
				n := &Node{Key: nextKey}
				nodes[nextKey] = n
				pushBack(l, n)
				model = append(model, nextKey)
				nextKey++
			case op == 2 && len(model) > 0: // move random to front
				k := model[rng.Intn(len(model))]
				l.MoveToFront(nodes[k])
				out := []uint64{k}
				for _, m := range model {
					if m != k {
						out = append(out, m)
					}
				}
				model = out
			case op == 3 && len(model) > 0: // remove random
				idx := rng.Intn(len(model))
				k := model[idx]
				l.Remove(nodes[k])
				delete(nodes, k)
				model = append(model[:idx:idx], model[idx+1:]...)
			case op == 4 && len(model) > 0: // pop back
				n := l.PopBack()
				if n == nil || n.Key != model[len(model)-1] {
					return false
				}
				delete(nodes, n.Key)
				model = model[:len(model)-1]
			}
			if l.Len() != len(model) {
				return false
			}
		}
		got := keysOf(l)
		if len(got) == 0 && len(model) == 0 {
			return true
		}
		return reflect.DeepEqual(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMoveToFront(b *testing.B) {
	l := New()
	nodes := make([]*Node, 1024)
	for i := range nodes {
		nodes[i] = &Node{Key: uint64(i)}
		pushBack(l, nodes[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.MoveToFront(nodes[i%len(nodes)])
	}
}
