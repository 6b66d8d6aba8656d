package cellprobe

import "fmt"

// TableClass is the typed identity of a table structure. Together with a
// level it forms a Tag, which replaces the formatted string IDs the oracle
// layer used to carry: oracle identity and transcript labels no longer
// depend on fmt.Sprintf output.
type TableClass uint8

const (
	// TableGeneric is for tests and ad-hoc tables with no paper role.
	TableGeneric TableClass = iota
	// TableBall is a ball table T_i of Theorem 9.
	TableBall
	// TableAux is an auxiliary table T̃_i of Algorithm 2.
	TableAux
	// TableMember is a degenerate-case membership table of §3.1; the tag
	// level carries the radius (0: x ∈ B, 1: x ∈ N₁(B)).
	TableMember
	// TablePrefix is the LPM prefix table of the §4 lower-bound machinery.
	TablePrefix
)

// Tag identifies one table: a class plus a level. It is comparable and is
// embedded in every Addr, so cell identity is (tag, payload) with no string
// round-trips.
type Tag struct {
	Class TableClass
	Level int32
}

// BallTag returns the tag of ball table T_level.
func BallTag(level int) Tag { return Tag{Class: TableBall, Level: int32(level)} }

// AuxTag returns the tag of auxiliary table T̃_level.
func AuxTag(level int) Tag { return Tag{Class: TableAux, Level: int32(level)} }

// MemberTag returns the tag of the radius-0 or radius-1 membership table.
func MemberTag(radius int) Tag { return Tag{Class: TableMember, Level: int32(radius)} }

// PrefixTag returns the tag of the LPM prefix table.
func PrefixTag() Tag { return Tag{Class: TablePrefix} }

// GenericTag returns an ad-hoc tag for tests and demos.
func GenericTag(n int) Tag { return Tag{Class: TableGeneric, Level: int32(n)} }

// String renders the tag with the labels transcripts and reports use.
func (t Tag) String() string {
	switch t.Class {
	case TableBall:
		return fmt.Sprintf("T[%d]", t.Level)
	case TableAux:
		return fmt.Sprintf("aux[%d]", t.Level)
	case TableMember:
		if t.Level == 0 {
			return "member[B]"
		}
		return "member[N1(B)]"
	case TablePrefix:
		return "lpm-prefix"
	default:
		return fmt.Sprintf("tbl[%d]", t.Level)
	}
}

// AddrWords is the inline payload capacity of an Addr in 64-bit words.
// Payloads that fit (sketch addresses, query points up to 1024 bits, small
// auxiliary groups) are stored by value and cost no allocation; longer
// payloads spill to a packed string, which allocates once per address
// construction but stays comparable.
const AddrWords = 16

// Addr is a binary cell address: the owning table's tag plus a packed,
// word-aligned payload. Addr is comparable — the result cache keys on it,
// and its payload words are the oracle memo's exact key — and carries no
// heap references for inline payloads, so building one on the query hot
// path allocates nothing.
type Addr struct {
	tag  Tag
	n    uint16            // payload length in words
	word [AddrWords]uint64 // inline payload (words [n:] are zero)
	ext  string            // packed payload when n > AddrWords ("" otherwise)
}

// Tag returns the owning table's tag.
func (a *Addr) Tag() Tag { return a.tag }

// Len returns the payload length in 64-bit words.
func (a *Addr) Len() int { return int(a.n) }

// Word returns payload word i.
func (a *Addr) Word(i int) uint64 {
	if i < 0 || i >= int(a.n) {
		panic(fmt.Sprintf("cellprobe: address word %d out of range [0,%d)", i, a.n))
	}
	if a.ext != "" {
		return extWord(a.ext, i)
	}
	return a.word[i]
}

// AppendPayload appends the payload words to dst and returns it: one copy
// for an inline payload. Table eval functions and the oracle memo extract
// the payload once, into a stack buffer of AddrWords words, and work on
// the flat words from there.
func (a *Addr) AppendPayload(dst []uint64) []uint64 {
	if a.ext == "" {
		return append(dst, a.word[:a.n]...)
	}
	for i := 0; i < int(a.n); i++ {
		dst = append(dst, extWord(a.ext, i))
	}
	return dst
}

// String renders the address for transcripts and debugging.
func (a Addr) String() string {
	return fmt.Sprintf("%s@%d words", a.tag, a.n)
}

func extWord(ext string, i int) uint64 {
	var w uint64
	for s := 0; s < 8; s++ {
		w |= uint64(ext[i*8+s]) << uint(8*s)
	}
	return w
}

// maxAddrWords bounds a payload to what the uint16 length field can
// carry: 65535 words = ~4.2M bits, far beyond any simulable dimension.
const maxAddrWords = 1<<16 - 1

func checkAddrLen(n int) {
	if n > maxAddrWords {
		panic(fmt.Sprintf("cellprobe: address payload of %d words exceeds the %d-word limit", n, maxAddrWords))
	}
}

// VecAddr returns the address whose payload is the given word slice (a
// packed bit vector: a sketch M_i·x or a query point). Zero-allocation when
// the payload fits the inline capacity.
func VecAddr(tag Tag, words []uint64) Addr {
	checkAddrLen(len(words))
	a := Addr{tag: tag, n: uint16(len(words))}
	if len(words) <= AddrWords {
		copy(a.word[:], words)
		return a
	}
	a.ext = packWords(words)
	return a
}

func packWords(words []uint64) string {
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		for s := 0; s < 8; s++ {
			buf[i*8+s] = byte(w >> uint(8*s))
		}
	}
	return string(buf)
}

// AddrBuilder assembles a structured multi-field address (the auxiliary
// tables' ⟨j, w₀, (level, w)…⟩ payload) word by word. The zero value is
// ready after Reset; it lives on the caller's stack and allocates only if
// the payload overflows the inline capacity.
type AddrBuilder struct {
	tag  Tag
	n    int
	word [AddrWords]uint64
	over []uint64 // all payload words, allocated on overflow only
}

// Reset starts a new address for the table identified by tag.
func (b *AddrBuilder) Reset(tag Tag) {
	b.tag = tag
	b.n = 0
	b.word = [AddrWords]uint64{}
	b.over = b.over[:0]
}

// Uint appends one word.
func (b *AddrBuilder) Uint(v uint64) {
	if b.n < AddrWords && len(b.over) == 0 {
		b.word[b.n] = v
		b.n++
		return
	}
	if len(b.over) == 0 {
		b.over = append(b.over, b.word[:b.n]...)
	}
	b.over = append(b.over, v)
	b.n++
}

// Vec appends a packed bit vector's words.
func (b *AddrBuilder) Vec(words []uint64) {
	for _, w := range words {
		b.Uint(w)
	}
}

// Addr finalizes the address.
func (b *AddrBuilder) Addr() Addr {
	checkAddrLen(b.n)
	if len(b.over) > 0 {
		return Addr{tag: b.tag, n: uint16(b.n), ext: packWords(b.over)}
	}
	return Addr{tag: b.tag, n: uint16(b.n), word: b.word}
}
