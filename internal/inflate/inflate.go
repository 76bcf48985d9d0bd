// Package inflate is a reusable-state DEFLATE (RFC 1951) decompressor for
// the archive's pooled block reads.
//
// The standard library's compress/flate allocates its Huffman overflow link
// tables on every dynamic-Huffman stream — ~17 allocations per archive
// block, even with the flate.Reader itself pooled and Reset — and moves one
// symbol at a time through a byte-at-a-time bit reader. This decoder exists
// to close both gaps: all decode state lives in the Decoder and is reused
// across streams, so a warmed Decoder performs zero heap allocations per
// block (the "archive-block-read" budget in internal/alloctest), and the
// block loop keeps its bit buffer, input position and output index in
// registers, refills eight bytes at a time, reads length/distance base and
// extra-bit counts straight out of the table entry, and writes by index into
// an output sized once.
//
// Scope is deliberately narrow: whole-buffer decompression of a complete
// DEFLATE stream into an append-target, with an output limit. No streaming,
// no dictionary preset. Correctness is pinned differentially against
// compress/flate — every stream the standard writer produces (all levels,
// stored/fixed/dynamic blocks) must decode byte-identically, enforced by the
// package tests and FuzzInflate.
package inflate

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
)

var (
	// ErrCorrupt reports a malformed or truncated DEFLATE stream.
	ErrCorrupt = errors.New("inflate: corrupt deflate stream")
	// ErrTooLarge reports that decoding would exceed the caller's limit.
	ErrTooLarge = errors.New("inflate: output exceeds limit")
)

// maxCodeLen is the longest Huffman code DEFLATE permits.
const maxCodeLen = 15

// A table entry says everything the block loop needs about one decoded
// symbol, so the loop never consults a second array:
//
//	bits 0..4    bits to consume: the code's length plus its extra bits
//	bits 5..8    the code's length alone
//	bits 9..12   entry kind (one of the flags below; none set = no such code)
//	bits 16..31  literal byte, length or distance base, or subtable offset
//
// For a link entry bits 0..4 hold the subtable's index width instead.
const (
	flagLiteral = 1 << 9  // value is an output byte
	flagEnd     = 1 << 10 // end of block
	flagBase    = 1 << 11 // value is a length/distance base; extra bits follow the code
	flagLink    = 1 << 12 // codes with this prefix are longer than the primary index

	totMask   = 31
	lenShift  = 5
	valShift  = 16
	litBits   = 10 // primary index widths: codes up to this long resolve in one lookup
	distBits  = 8
	clenBits  = 7 // the code-length alphabet's codes are at most 7 bits: never links
	litSyms   = 288
	distSyms  = 32
	clenSyms  = 19
	refillMin = 48 // a length code, its extra bits, a distance code and its extra bits: 15+5+15+13
)

// Length and distance code expansion (RFC 1951 §3.2.5).
var (
	lenBase = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
		257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// clenOrder is the transmission order of the code-length code lengths.
	clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// Per-alphabet entry templates: everything of a symbol's entry except its
// code length, which build adds. Symbols the format reserves (literal/length
// 286–287, distance 30–31) keep a zero template and decode as corrupt.
var (
	litTemplate  [litSyms]uint32
	distTemplate [distSyms]uint32
	clenTemplate [clenSyms]uint32
)

func init() {
	for s := 0; s < 256; s++ {
		litTemplate[s] = flagLiteral | uint32(s)<<valShift
	}
	litTemplate[256] = flagEnd
	for i, base := range lenBase {
		litTemplate[257+i] = flagBase | uint32(base)<<valShift | uint32(lenExtra[i])
	}
	for i, base := range distBase {
		distTemplate[i] = flagBase | uint32(base)<<valShift | uint32(distExtra[i])
	}
	for s := range clenTemplate {
		clenTemplate[s] = flagLiteral | uint32(s)<<valShift
	}
}

// table is one canonical Huffman decode table in two levels: a primary array
// indexed by the next primary input bits in stream (LSB-first) order, and,
// for codes longer than that, subtables of 1<<(max-primary) entries reached
// through a link entry. A dynamic block therefore rebuilds a few kilobytes,
// not a flat 1<<15 array. The backing array is sized for the worst case on
// first use and retained; rebuilds allocate nothing.
type table struct {
	entries []uint32
}

// build constructs the table for the given per-symbol code lengths (0 =
// symbol absent); templates parallels lengths. Over-subscribed codings are
// rejected; incomplete codings are permitted (their gaps error at decode
// time), which matches the degenerate single-code streams compress/flate
// emits.
func (t *table) build(lengths []byte, templates []uint32, primary uint) error {
	var count [maxCodeLen + 1]int
	max := uint(0)
	for _, n := range lengths {
		count[n]++
		if uint(n) > max {
			max = uint(n)
		}
	}
	count[0] = 0
	// Over-subscription check and canonical first-code computation.
	left := 1
	var next [maxCodeLen + 1]int
	code := 0
	for n := uint(1); n <= maxCodeLen; n++ {
		left <<= 1
		left -= count[n]
		if left < 0 {
			return ErrCorrupt
		}
		code = (code + count[n-1]) << 1
		next[n] = code
	}

	psize := 1 << primary
	if t.entries == nil {
		// Every long code could in principle sit under a prefix of its own.
		t.entries = make([]uint32, psize+len(templates)<<(maxCodeLen-primary))
	}
	// Zero reads as "no such code": what the fill leaves of an incomplete
	// coding, and the mark of a prefix that has no subtable yet.
	clear(t.entries[:psize])
	used := psize
	for sym, nb := range lengths {
		if nb == 0 {
			continue
		}
		n := uint(nb)
		c := next[n]
		next[n]++
		// Codes are MSB-first; the bit stream arrives LSB-first, so an
		// entry sits at the bit-reversed code, replicated across every
		// possible suffix.
		rev := int(bits.Reverse16(uint16(c)) >> (16 - n))
		e := templates[sym]
		if e != 0 {
			e += uint32(n) | uint32(n)<<lenShift
		}
		if n <= primary {
			for i := rev; i < psize; i += 1 << n {
				t.entries[i] = e
			}
			continue
		}
		sub := max - primary
		link := &t.entries[rev&(psize-1)]
		if *link == 0 {
			*link = flagLink | uint32(used)<<valShift | uint32(sub)
			clear(t.entries[used : used+1<<sub])
			used += 1 << sub
		}
		off := int(*link >> valShift)
		for i := rev >> primary; i < 1<<sub; i += 1 << (n - primary) {
			t.entries[off+i] = e
		}
	}
	return nil
}

// Decoder holds all decompression state. The zero value is ready; reuse one
// Decoder per goroutine to amortize its table storage across streams. Not
// safe for concurrent use.
type Decoder struct {
	src    []byte
	pos    int
	bitbuf uint64
	nbits  uint

	litlen, dist, clen table
	fixedLit, fixedDst table
	fixedBuilt         bool

	lens [litSyms + distSyms]byte
}

// fill tops up the bit buffer from the source (LSB-first).
func (d *Decoder) fill() {
	for d.nbits <= 56 && d.pos < len(d.src) {
		d.bitbuf |= uint64(d.src[d.pos]) << d.nbits
		d.pos++
		d.nbits += 8
	}
}

// getBits consumes n bits (n ≤ 32).
func (d *Decoder) getBits(n uint) (uint32, error) {
	if d.nbits < n {
		d.fill()
		if d.nbits < n {
			return 0, ErrCorrupt
		}
	}
	v := uint32(d.bitbuf) & (1<<n - 1)
	d.bitbuf >>= n
	d.nbits -= n
	return v, nil
}

// clenSym consumes one symbol of the code-length alphabet.
func (d *Decoder) clenSym() (uint32, error) {
	if d.nbits < clenBits {
		d.fill()
	}
	e := d.clen.entries[uint32(d.bitbuf)&(1<<clenBits-1)]
	n := uint(e & totMask)
	if n == 0 || n > d.nbits {
		return 0, ErrCorrupt
	}
	d.bitbuf >>= n
	d.nbits -= n
	return e >> valShift, nil
}

// buildFixed constructs the fixed-Huffman tables (§3.2.6) once per Decoder.
func (d *Decoder) buildFixed() error {
	var lit [litSyms]byte
	for i := range lit {
		switch {
		case i < 144:
			lit[i] = 8
		case i < 256:
			lit[i] = 9
		case i < 280:
			lit[i] = 7
		default:
			lit[i] = 8
		}
	}
	if err := d.fixedLit.build(lit[:], litTemplate[:], litBits); err != nil {
		return err
	}
	var dst [distSyms]byte
	for i := range dst {
		dst[i] = 5
	}
	if err := d.fixedDst.build(dst[:], distTemplate[:], distBits); err != nil {
		return err
	}
	d.fixedBuilt = true
	return nil
}

// readDynamicHeader parses a dynamic-Huffman block header (§3.2.7) and
// builds d.litlen and d.dist.
func (d *Decoder) readDynamicHeader() error {
	hlit, err := d.getBits(5)
	if err != nil {
		return err
	}
	hdist, err := d.getBits(5)
	if err != nil {
		return err
	}
	hclen, err := d.getBits(4)
	if err != nil {
		return err
	}
	nlit, ndist, nclen := int(hlit)+257, int(hdist)+1, int(hclen)+4
	if nlit > 286 || ndist > 30 {
		return ErrCorrupt
	}
	var clens [clenSyms]byte
	for i := 0; i < nclen; i++ {
		v, err := d.getBits(3)
		if err != nil {
			return err
		}
		clens[clenOrder[i]] = byte(v)
	}
	if err := d.clen.build(clens[:], clenTemplate[:], clenBits); err != nil {
		return err
	}
	// Literal/length and distance code lengths share one run-length coded
	// sequence (repeats may cross the boundary).
	total := nlit + ndist
	lens := d.lens[:total]
	for i := 0; i < total; {
		sym, err := d.clenSym()
		if err != nil {
			return err
		}
		switch {
		case sym < 16:
			lens[i] = byte(sym)
			i++
		case sym == 16:
			if i == 0 {
				return ErrCorrupt
			}
			rep, err := d.getBits(2)
			if err != nil {
				return err
			}
			n := int(rep) + 3
			if i+n > total {
				return ErrCorrupt
			}
			prev := lens[i-1]
			for j := 0; j < n; j++ {
				lens[i] = prev
				i++
			}
		default: // 17, 18: a run of zeros
			bitsN, base := uint(3), 3
			if sym == 18 {
				bitsN, base = 7, 11
			}
			rep, err := d.getBits(bitsN)
			if err != nil {
				return err
			}
			n := int(rep) + base
			if i+n > total {
				return ErrCorrupt
			}
			clear(lens[i : i+n])
			i += n
		}
	}
	if err := d.litlen.build(lens[:nlit], litTemplate[:], litBits); err != nil {
		return err
	}
	return d.dist.build(lens[nlit:nlit+ndist], distTemplate[:], distBits)
}

// grow returns out with room for need more bytes after op, its length
// stretched to its capacity so the block loop can write by index.
func grow(out []byte, op, need int) []byte {
	out = slices.Grow(out[:op], need)
	return out[:cap(out)]
}

// inflateBlock decodes one Huffman-compressed block body into out at index
// op, returning the (possibly reallocated) buffer and the new index. out has
// its length stretched to its capacity; bytes at and beyond op are scratch.
// Bit buffer, input position and output index live in locals for the whole
// block and are stored back on every exit.
func (d *Decoder) inflateBlock(out []byte, op int, lit, dist *table, origin, limit int) ([]byte, int, error) {
	src, pos := d.src, d.pos
	b, nb := d.bitbuf, int(d.nbits)
	litTab, distTab := lit.entries, dist.entries
	// The bounds the loop checks on the way: output is writable below lim.
	lim := min(len(out), limit)
	var err error
	for {
		if nb < refillMin {
			if pos+8 <= len(src) {
				// Bits above nb are either zero or already the stream's next
				// bits, so OR-ing the same bytes in again is harmless.
				b |= binary.LittleEndian.Uint64(src[pos:]) << uint(nb)
				pos += (63 - nb) >> 3
				nb |= 56
			} else {
				for nb <= 56 && pos < len(src) {
					b |= uint64(src[pos]) << uint(nb)
					pos++
					nb += 8
				}
			}
		}
		e := litTab[uint32(b)&(1<<litBits-1)]
		if e&flagLink != 0 {
			e = litTab[e>>valShift+uint32(b>>litBits)&(1<<(e&totMask)-1)]
		}
		tot := int(e & totMask)
		if nb -= tot; nb < 0 {
			err = ErrCorrupt // the stream ends inside a symbol
			break
		}
		if e&flagLiteral != 0 {
			b >>= uint(tot)
			if op >= lim {
				if op >= limit {
					err = ErrTooLarge
					break
				}
				out = grow(out, op, 1)
				lim = min(len(out), limit)
			}
			out[op] = byte(e >> valShift)
			op++
			continue
		}
		if e&flagBase == 0 {
			if e&flagEnd != 0 {
				b >>= uint(tot)
			} else {
				err = ErrCorrupt // a bit pattern no code covers, or a reserved symbol
			}
			break
		}
		length := int(e>>valShift) + int(uint32(b)&(1<<uint(tot)-1)>>(e>>lenShift&15))
		b >>= uint(tot)

		e = distTab[uint32(b)&(1<<distBits-1)]
		if e&flagLink != 0 {
			e = distTab[e>>valShift+uint32(b>>distBits)&(1<<(e&totMask)-1)]
		}
		tot = int(e & totMask)
		if nb -= tot; nb < 0 || e&flagBase == 0 {
			err = ErrCorrupt
			break
		}
		distance := int(e>>valShift) + int(uint32(b)&(1<<uint(tot)-1)>>(e>>lenShift&15))
		b >>= uint(tot)

		if distance > op-origin {
			err = ErrCorrupt // reference before the stream's start
			break
		}
		if op+length > lim {
			if op+length > limit {
				err = ErrTooLarge
				break
			}
			out = grow(out, op, length)
			lim = min(len(out), limit)
		}
		end := op + length
		if distance >= length {
			copy(out[op:end], out[op-distance:])
			op = end
			continue
		}
		// Overlapping match: the pattern repeats, doubling what each copy
		// can take.
		for p := op - distance; op < end; {
			op += copy(out[op:end], out[p:op])
		}
	}
	if nb < 0 {
		nb = 0
	}
	d.pos, d.bitbuf, d.nbits = pos, b, uint(nb)
	return out, op, err
}

// stored copies one stored block (§3.2.4) into out at op.
func (d *Decoder) stored(out []byte, op, limit int) ([]byte, int, error) {
	// Discard bits to the byte boundary, then LEN/~LEN.
	skip := d.nbits & 7
	d.bitbuf >>= skip
	d.nbits -= skip
	ln, err := d.getBits(16)
	if err != nil {
		return out, op, err
	}
	nln, err := d.getBits(16)
	if err != nil {
		return out, op, err
	}
	if uint16(ln) != ^uint16(nln) {
		return out, op, ErrCorrupt
	}
	n := int(ln)
	if op+n > limit {
		return out, op, ErrTooLarge
	}
	if op+n > len(out) {
		out = grow(out, op, n)
	}
	// Whole bytes still in the bit buffer come first; the buffer is then
	// empty, so whatever sat above its counted bits goes with it.
	for ; n > 0 && d.nbits >= 8; n-- {
		out[op] = byte(d.bitbuf)
		op++
		d.bitbuf >>= 8
		d.nbits -= 8
	}
	if n > 0 {
		d.bitbuf, d.nbits = 0, 0
		if d.pos+n > len(d.src) {
			return out, op, ErrCorrupt
		}
		op += copy(out[op:op+n], d.src[d.pos:])
		d.pos += n
	}
	return out, op, nil
}

// AppendDecode decompresses the complete DEFLATE stream in src, appending
// the output to dst and returning the extended slice. Decoding fails with
// ErrTooLarge as soon as the output would exceed limit bytes total (len of
// the returned slice, including what dst already held). On error the
// returned slice holds the output produced so far. Bytes in src beyond the
// final block are ignored, matching compress/flate. dst's spare capacity is
// scratch: the decoder writes into it directly and grows it only when the
// stream outruns it.
func (d *Decoder) AppendDecode(dst, src []byte, limit int) ([]byte, error) {
	d.src = src
	d.pos = 0
	d.bitbuf = 0
	d.nbits = 0
	defer func() { d.src = nil }()
	origin := len(dst)
	out, op := dst[:cap(dst)], origin
	for {
		bfinal, err := d.getBits(1)
		if err != nil {
			return out[:op], err
		}
		btype, err := d.getBits(2)
		if err != nil {
			return out[:op], err
		}
		switch btype {
		case 0:
			out, op, err = d.stored(out, op, limit)
		case 1:
			if !d.fixedBuilt {
				if err := d.buildFixed(); err != nil {
					return out[:op], err
				}
			}
			out, op, err = d.inflateBlock(out, op, &d.fixedLit, &d.fixedDst, origin, limit)
		case 2:
			if err = d.readDynamicHeader(); err == nil {
				out, op, err = d.inflateBlock(out, op, &d.litlen, &d.dist, origin, limit)
			}
		default:
			err = ErrCorrupt
		}
		if err != nil || bfinal == 1 {
			return out[:op], err
		}
	}
}
