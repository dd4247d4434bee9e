// Package list provides an intrusive doubly-linked list specialized for
// cache metadata. Unlike container/list it stores no interface values: the
// caller embeds Node (or allocates Nodes keyed by object ID) so traversal
// performs no allocation and no type assertions. LRU-family eviction
// algorithms in this repository are built on it.
package list

// Node is an element of a List. The zero value is a detached node.
type Node struct {
	prev, next *Node
	list       *List

	// Key is the object ID this node tracks.
	Key uint64
	// Size is the object size in bytes (1 for unit-size workloads).
	Size uint32
	// Freq is scratch frequency/reference state for policies that need it
	// (CLOCK reference bit, S3-FIFO 2-bit counter, LFU counts, ...).
	Freq int32
	// Aux is extra scratch space (e.g. LIRS state, logical timestamps).
	Aux int64
}

// List is an intrusive doubly-linked list with O(1) PushFront, Remove,
// MoveToFront and PopBack. The front is the MRU/head end; the back is the
// LRU/tail end.
type List struct {
	root Node // sentinel; root.next = front, root.prev = back
	len  int
}

// New returns an initialized empty list.
func New() *List {
	l := &List{}
	l.root.next = &l.root
	l.root.prev = &l.root
	l.root.list = l
	return l
}

// Len returns the number of nodes in the list.
func (l *List) Len() int { return l.len }

// Back returns the tail node, or nil when empty.
func (l *List) Back() *Node {
	if l.len == 0 {
		return nil
	}
	return l.root.prev
}

// Prev returns the node before n toward the front, or nil at the front.
func (n *Node) Prev() *Node {
	if n.list == nil {
		return nil
	}
	if prev := n.prev; prev != &n.list.root {
		return prev
	}
	return nil
}

// InList reports whether n is currently linked into a list.
func (n *Node) InList() bool { return n.list != nil }

func (l *List) insert(n, at *Node) {
	if n.list != nil {
		panic("list: inserting a node that is already in a list")
	}
	n.prev = at
	n.next = at.next
	n.prev.next = n
	n.next.prev = n
	n.list = l
	l.len++
}

// PushFront inserts n at the head (MRU end).
func (l *List) PushFront(n *Node) { l.insert(n, &l.root) }

// Remove unlinks n from its list. It panics if n is not in l.
func (l *List) Remove(n *Node) {
	if n.list != l {
		panic("list: removing a node from a different list")
	}
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev = nil
	n.next = nil
	n.list = nil
	l.len--
}

// MoveToFront moves n to the head. It panics if n is not in l.
func (l *List) MoveToFront(n *Node) {
	if n.list != l {
		panic("list: moving a node from a different list")
	}
	if l.root.next == n {
		return
	}
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev = &l.root
	n.next = l.root.next
	n.prev.next = n
	n.next.prev = n
}

// PopBack removes and returns the tail node, or nil when empty.
func (l *List) PopBack() *Node {
	n := l.Back()
	if n == nil {
		return nil
	}
	l.Remove(n)
	return n
}
