package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// RCODEs the bench expects.
const (
	rcodeNoError  = 0
	rcodeNXDomain = 3
)

// AppendQuery appends a complete query message: header with id and RD
// set, one question.
func AppendQuery(dst []byte, id uint16, question []byte) []byte {
	dst = append(dst, byte(id>>8), byte(id), 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0)
	return append(dst, question...)
}

// Errors Check reports, one per kind of wrong answer.
var (
	ErrShort    = errors.New("response shorter than its header and question")
	ErrID       = errors.New("response ID does not match the query")
	ErrNotReply = errors.New("QR bit clear, opcode changed, or truncated")
	ErrRCode    = errors.New("unexpected RCODE")
	ErrEcho     = errors.New("question not echoed: different name, type or class")
	// ErrEchoCase means the answer is right in every respect except that
	// the echoed question lost the query's 0x20 mixed case. Callers
	// decide whether that fails the run (see the README).
	ErrEchoCase = errors.New("question echoed with its 0x20 case changed")
	ErrAnswer   = errors.New("answer RRset differs from the zone data")
)

// Check verifies one response against the query it answers: same ID, a
// non-truncated reply, the question echoed byte for byte (0x20 case
// included), and the RRset the bench's own zone data holds — NOERROR with
// exactly the host's A record for a hot name, NXDOMAIN with no answers
// for a fresh label (host < 0).
func Check(resp []byte, id uint16, question []byte, host int) error {
	if len(resp) < 12+len(question) {
		return ErrShort
	}
	if binary.BigEndian.Uint16(resp) != id {
		return ErrID
	}
	flags := binary.BigEndian.Uint16(resp[2:])
	if flags&0x8000 == 0 || flags&0x7800 != 0 || flags&0x0200 != 0 {
		return ErrNotReply
	}
	rcode := int(flags & 0xF)
	qd := binary.BigEndian.Uint16(resp[4:])
	an := int(binary.BigEndian.Uint16(resp[6:]))
	echo := resp[12 : 12+len(question)]
	caseLost := false
	if qd != 1 || !equalFold(echo, question) {
		return ErrEcho
	}
	if !bytes.Equal(echo, question) {
		caseLost = true
	}
	if err := checkAnswer(resp, question, rcode, an, host); err != nil {
		return err
	}
	if caseLost {
		return ErrEchoCase
	}
	return nil
}

// checkAnswer checks RCODE and the answer section against the zone data.
func checkAnswer(resp, question []byte, rcode, an, host int) error {
	if host < 0 {
		if rcode != rcodeNXDomain {
			return fmt.Errorf("%w: %d, want NXDOMAIN", ErrRCode, rcode)
		}
		if an != 0 {
			return fmt.Errorf("%w: %d answers to an NXDOMAIN", ErrAnswer, an)
		}
		return nil
	}
	if rcode != rcodeNoError {
		return fmt.Errorf("%w: %d, want NOERROR", ErrRCode, rcode)
	}
	want := HostAddr(host).As4()
	off := 12 + len(question)
	found := 0
	for i := 0; i < an; i++ {
		owner, next, err := readName(resp, off)
		if err != nil || next+10 > len(resp) {
			return fmt.Errorf("%w: malformed answer %d", ErrAnswer, i)
		}
		typ := binary.BigEndian.Uint16(resp[next:])
		class := binary.BigEndian.Uint16(resp[next+2:])
		rdlen := int(binary.BigEndian.Uint16(resp[next+8:]))
		rdata := next + 10
		if rdata+rdlen > len(resp) {
			return fmt.Errorf("%w: answer %d overruns the message", ErrAnswer, i)
		}
		if typ != TypeA || class != ClassIN || !equalFold(owner, question[:len(question)-4]) {
			return fmt.Errorf("%w: answer %d is not an IN A record for the question", ErrAnswer, i)
		}
		if rdlen != 4 || !bytes.Equal(resp[rdata:rdata+4], want[:]) {
			return fmt.Errorf("%w: answer %d address %v", ErrAnswer, i, resp[rdata:rdata+rdlen])
		}
		found++
		off = rdata + rdlen
	}
	if found != 1 {
		return fmt.Errorf("%w: %d A records, want 1", ErrAnswer, found)
	}
	return nil
}

// readName decodes the (possibly compressed) name at off into its
// uncompressed wire form and returns the offset just past it.
func readName(msg []byte, off int) ([]byte, int, error) {
	var name []byte
	next := -1
	for hops := 0; hops < 16; {
		if off >= len(msg) {
			return nil, 0, ErrShort
		}
		l := int(msg[off])
		switch {
		case l == 0:
			name = append(name, 0)
			if next < 0 {
				next = off + 1
			}
			return name, next, nil
		case l&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return nil, 0, ErrShort
			}
			if next < 0 {
				next = off + 2
			}
			off = int(binary.BigEndian.Uint16(msg[off:]) & 0x3FFF)
			hops++
		case l&0xC0 == 0:
			if off+1+l > len(msg) {
				return nil, 0, ErrShort
			}
			name = append(name, msg[off:off+1+l]...)
			off += 1 + l
		default:
			return nil, 0, ErrShort
		}
	}
	return nil, 0, ErrShort
}

// SameQuestion reports whether two wire questions are equal apart from
// the case of their names.
func SameQuestion(a, b []byte) bool { return equalFold(a, b) }

// equalFold compares two wire names ASCII case-insensitively.
func equalFold(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x >= 'A' && x <= 'Z' {
			x += 'a' - 'A'
		}
		if y >= 'A' && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}
