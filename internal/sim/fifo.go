package sim

// FIFO is the queue the models built on this engine keep their in-flight
// work in: values pushed at the back, consumed from the front. It keeps one
// backing array — popping moves a head index, and a push that finds the array
// full with at least half of it already popped slides the live part down
// instead of growing — so a queue in steady state does not allocate, which
// `q = q[1:]` followed by append does on every lap. The zero value is empty.
type FIFO[T any] struct {
	v    []T // v[head:] are live
	head int
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return len(q.v) - q.head }

// Live returns the queued values, oldest first. The slice is valid until the
// next Push; Drop leaves its length stale but the dropped elements zeroed.
func (q *FIFO[T]) Live() []T { return q.v[q.head:] }

// Push appends x.
//
//e2e:hotpath
func (q *FIFO[T]) Push(x T) {
	if q.head > 0 && len(q.v) == cap(q.v) && q.head*2 >= len(q.v) {
		n := copy(q.v, q.v[q.head:])
		clear(q.v[n:])
		q.v, q.head = q.v[:n], 0
	}
	//lint:ignore e2elint/hotpath grows to the deepest backlog seen, then is reused
	q.v = append(q.v, x)
}

// Drop removes the n oldest values, zeroing them so the array does not pin
// what they referred to.
//
//e2e:hotpath
func (q *FIFO[T]) Drop(n int) {
	clear(q.v[q.head : q.head+n])
	if q.head += n; q.head == len(q.v) {
		q.v, q.head = q.v[:0], 0
	}
}

// Pop removes and returns the oldest value. The queue must not be empty.
//
//e2e:hotpath
func (q *FIFO[T]) Pop() T {
	x := q.v[q.head]
	q.Drop(1)
	return x
}
