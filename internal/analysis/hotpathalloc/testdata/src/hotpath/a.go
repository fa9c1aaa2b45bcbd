// Package hotpath is hotpathalloc's golden test package: every
// allocation-causing construct the analyzer flags, each next to the
// zero-alloc idiom that replaces it.
package hotpath

import "fmt"

type ring struct {
	buf   []int
	items []int
}

func consume(x interface{}) { _ = x }

func record(vs ...interface{}) { _ = vs }

//catnap:hotpath
func (r *ring) bad(n int) {
	b := make([]int, n) // want `make in a hot-path function allocates`
	_ = b
	p := new(ring) // want `new in a hot-path function allocates`
	_ = p
	r.items = append(r.buf, n) // want `append outside the amortised`
	fmt.Println(n)             // want `fmt\.Println in a hot-path function allocates`
	lit := []int{n}            // want `slice literal in a hot-path function allocates`
	_ = lit
	m := map[int]int{n: n} // want `map literal in a hot-path function allocates`
	_ = m
	q := &ring{} // want `&T\{\} in a hot-path function allocates when it escapes`
	_ = q
	f := func() {} // want `closure literal in a hot-path function`
	f()
}

//catnap:hotpath
func (r *ring) boxes(v int) {
	consume(v) // want `value of type int boxed into interface parameter`
	record(v)  // want `value of type int boxed into interface parameter`
}

//catnap:hotpath
func describe(a, b string) string {
	return a + b // want `string concatenation in a hot-path function allocates`
}

//catnap:hotpath
func (r *ring) good(n int) {
	r.items = append(r.items, n) // self-append idiom: amortised, allowed
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n)) // panic args are cold: allowed
	}
}

//catnap:hotpath
func (r *ring) grow(n int) {
	if len(r.buf) == 0 {
		//lint:ignore hotpathalloc golden demonstration of a justified one-time growth
		r.buf = make([]int, n)
	}
}

// notHot allocates freely: only annotated functions are checked.
func notHot(n int) []int {
	return make([]int, n)
}
