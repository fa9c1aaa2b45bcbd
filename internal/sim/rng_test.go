package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws from different seeds", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := NewRNG(0)
	v := r.Uint64()
	for i := 0; i < 100; i++ {
		if r.Uint64() != v {
			return // stream is not constant: good
		}
	}
	t.Fatal("zero seed produced a constant stream")
}

// TestIntnBounds is a property test: Intn(n) always lands in [0, n).
func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	f := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r.Reseed(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(3)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Errorf("bucket %d: %d draws, want %d±5%%", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(9)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-p) > 0.01 {
		t.Errorf("Bernoulli(%v) rate = %v", p, rate)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(13)
	const p, draws = 0.1, 50000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / draws
	want := (1 - p) / p // failures before first success
	if math.Abs(mean-want) > 0.5 {
		t.Errorf("Geometric(%v) mean = %.2f, want %.2f", p, mean, want)
	}
	if r.Geometric(1) != 0 {
		t.Error("Geometric(1) should be 0")
	}
	if r.Geometric(0) < 1<<29 {
		t.Error("Geometric(0) should be effectively infinite")
	}
}

func TestSplitNIndependence(t *testing.T) {
	root := NewRNG(23)
	a := root.SplitN(0)
	b := root.SplitN(1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws from split streams", same)
	}
}

// TestKnownAnswers pins the xoshiro256** stream and everything derived
// from it: the first 16 Uint64 of NewRNG for four seeds, SplitN children
// and the parent's advance, Intn for several n, and Float64. The values
// were recorded before Uint64 moved to locals and math/bits; any change
// to them changes every simulated result. n = 2^62+1 rejects about one
// draw in four in Lemire's method: its 16 results take 23 draws, which
// the Uint64 that follows them pins.
func TestKnownAnswers(t *testing.T) {
	streams := []struct {
		seed uint64
		want [16]uint64
	}{
		{0, [16]uint64{0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c, 0xbba5ad4a1f842e59, 0xffef8375d9ebcaca, 0x6c160deed2f54c98, 0x8920ad648fc30a3f, 0xdb032c0ba7539731, 0xeb3a475a3e749a3d, 0x1d42993fa43f2a54, 0x11361bf526a14bb5, 0x1b4f07a5ab3d8e9c, 0xa7a3257f6986db7f, 0x7efdaa95605dfc9c, 0x4bde97c0a78eaab8}},
		{1, [16]uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7, 0xb27a48e29a233673, 0x24c123126ffda722, 0x123004ef8df510e6, 0x61954dcc47b1e89d, 0xddfdb48ab9ed4a21, 0x8d3cdb8c3aa5b1d0, 0xeebd114bd87226d1, 0xf50c3ff1e7d7e8a6, 0xeeca3115e23bc8f1, 0xab49ed3db4c66435, 0x99953c6c57808dd7, 0xe3fa941b05219325}},
		{42, [16]uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1, 0xfde6dc7fe2ec5e64, 0xc50da53101795238, 0xb82154855a65ddb2, 0xd99a2743ebe60087, 0xc2e96e726e97647e, 0x9556615f775fbc3d, 0xaeb53b340c103971, 0x4a69db9873af8965, 0xcd0feda93006c6b6, 0x52480865a4b42742, 0xb60dec3bf2d887cd, 0xe0b55a68b96677fa}},
		{0x9e3779b97f4a7c15, [16]uint64{0x422ea740d0977210, 0xe062b061b42e2928, 0x5a071fc5930841b6, 0x01334ef8ed3cc2bd, 0xe45cbd6a2d9e96db, 0x3bc1fe841a5f292f, 0x60001d95ebbbd8e6, 0xa0aee00b5b303762, 0x9e23c8d7514cf750, 0xfc79b675a1a76a3c, 0xd430797eb1952242, 0x5d8c1e38c042f56d, 0x62192f394c129095, 0xb66848e210a0f50d, 0x2d1d2eb24edaba45, 0x794532bcac68202c}},
	}
	for _, c := range streams {
		r := NewRNG(c.seed)
		for i, w := range c.want {
			if got := r.Uint64(); got != w {
				t.Fatalf("seed %#x draw %d: %#016x, want %#016x", c.seed, i, got, w)
			}
		}
	}

	children := [4][4]uint64{
		{0x214c58958ca2a8a5, 0x84a76abe9e4119dc, 0xd9dd03480cc8f2e4, 0x6aa8bb77bb77649c},
		{0xc7faa61f51880c48, 0x3ce827d085e6e9e6, 0xbbd402f1ab6f2eb2, 0x5c080fb4304d7130},
		{0xd20b3ee1389fbc0c, 0x4b6591e90ee6afbd, 0xd8a82c5cf1b8bb64, 0x410bd50f958d0692},
		{0xf8ff8b5f979070a9, 0x58ca9a2c835c953f, 0xfdf326643747b576, 0xc64586c1c9e51776},
	}
	const rootNext = 0xfda904ec7e540318
	// SplitN and SplitNInto must seed the same children and advance the
	// parent alike.
	for _, inPlace := range []bool{false, true} {
		root := NewRNG(7)
		for i, want := range children {
			var c *RNG
			if inPlace {
				c = &RNG{}
				root.SplitNInto(i, c)
			} else {
				c = root.SplitN(i)
			}
			for k, w := range want {
				if got := c.Uint64(); got != w {
					t.Fatalf("in place %v: child %d draw %d: %#016x, want %#016x", inPlace, i, k, got, w)
				}
			}
		}
		if got := root.Uint64(); got != rootNext {
			t.Fatalf("in place %v: parent after 4 splits: %#016x, want %#016x", inPlace, got, uint64(rootNext))
		}
	}

	intn := []struct {
		n    int
		want [16]int
		next uint64
	}{
		{1, [16]int{}, 0x1d945b106e15f0c6},
		{2, [16]int{1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1, 0}, 0x1d945b106e15f0c6},
		{10, [16]int{6, 6, 2, 5, 4, 3, 2, 7, 9, 1, 9, 6, 6, 7, 6, 1}, 0x1d945b106e15f0c6},
		{63, [16]int{43, 40, 13, 33, 26, 25, 13, 45, 59, 12, 58, 42, 40, 47, 43, 6}, 0x1d945b106e15f0c6},
		{1000, [16]int{690, 640, 218, 533, 424, 399, 210, 715, 942, 195, 923, 679, 644, 754, 685, 110}, 0x1d945b106e15f0c6},
		{1<<62 + 1, [16]int{3185006969385231152, 1006557535215976276, 1958101720500872706, 969227116883123349, 4258253071890144123, 3135375620726801682, 2974057897089153228, 3479552165164412322, 3161426416262930939, 508852787752563188, 532857162444405809, 530645052586715339, 4138747363298919259, 3267411029401890425, 2768373848279010517, 2393092614262721592}, 0x0e172514a4c694fa},
	}
	for _, c := range intn {
		r := NewRNG(3)
		for i, w := range c.want {
			if got := r.Intn(c.n); got != w {
				t.Fatalf("Intn(%d) draw %d: %d, want %d", c.n, i, got, w)
			}
		}
		if got := r.Uint64(); got != c.next {
			t.Fatalf("Intn(%d): next Uint64 %#016x, want %#016x (rejections moved)", c.n, got, c.next)
		}
	}

	floats := []float64{0.223274216617233, 0.08723440006391181, 0.24526072486170158, 0.4437749792835223, 0.08525197547021424, 0.30667169793887494, 0.5124332173484659, 0.9957609805817087}
	r := NewRNG(11)
	for i, w := range floats {
		if got := r.Float64(); got != w {
			t.Fatalf("Float64 draw %d: %v, want %v", i, got, w)
		}
	}
}

// FuzzBernoulliThreshold checks BernoulliThreshold against Bernoulli for
// any float64: two generators with one seed, one making Bernoulli(p)
// trials and one following the threshold, must agree on every outcome
// and on the number of draws (the next Uint64 of each). The threshold
// must also decide the draws next to itself (k = thr-1, thr) as
// Bernoulli's float compare k/2^53 < p does, which random streams almost
// never reach. Named seeds: NaN, ±Inf, ±0, 1, subnormals, the smallest
// normal, and math.Nextafter neighbours of k/2^53.
func FuzzBernoulliThreshold(f *testing.F) {
	seeds := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 2,
		math.SmallestNonzeroFloat64, 0x1p-1074 * 3, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		0.5, 0.3, 0.05, math.Nextafter(1, 0),
	}
	for _, k := range []float64{1, 2, 3, 1 << 20, 1<<52 + 1, 1<<53 - 1} {
		x := k / (1 << 53)
		seeds = append(seeds, x, math.Nextafter(x, 0), math.Nextafter(x, 1))
	}
	for i, p := range seeds {
		f.Add(p, uint64(i))
	}
	f.Fuzz(func(t *testing.T, p float64, seed uint64) {
		thr, draw := BernoulliThreshold(p)
		if thr > 1<<53 {
			t.Fatalf("p=%v: threshold %#x above 2^53", p, thr)
		}
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 64; i++ {
			want := a.Bernoulli(p)
			got := thr != 0
			if draw {
				got = b.Uint64()>>11 < thr
			}
			if got != want {
				t.Fatalf("p=%v seed %d trial %d: threshold says %v, Bernoulli %v", p, seed, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%v seed %d: the two paths took different numbers of draws", p, seed)
		}
		if !draw {
			return
		}
		for _, k := range []uint64{thr - 1, thr} {
			if k >= 1<<53 {
				continue // no 53-bit draw; thr-1 wraps for thr == 0
			}
			// Float64's formula for the draw k<<11.
			if want := float64(k)/(1<<53) < p; (k < thr) != want {
				t.Fatalf("p=%v: k=%d decides %v, Bernoulli %v", p, k, k < thr, want)
			}
		}
	})
}
