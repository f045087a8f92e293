package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// The bodies of POST /fairshare/batch, the lookup a resource manager's
// re-prioritization pass makes for its whole queue. Both directions are
// binary, and the answer follows the request's order, so it never repeats the
// names it answers: position i of the answer is about user i of the request.
//
// Request (UsersContentType):
//
//	version byte, uvarint n, n × (uvarint len, name bytes)
//
// Answer (FairshareBatchContentType):
//
//	version byte, varint seconds and uvarint nanoseconds of ComputedAt,
//	uvarint len and bytes of Projection, uvarint n,
//	n × (uvarint tag, and for tag k > 0: Value, Priority and the k−1
//	     elements of Vector, each as 8 little-endian bytes of float64 bits)
//
// Tag 0 marks a user absent from the policy. One ComputedAt serves every
// entry, because one snapshot answers the whole batch.
const (
	UsersContentType          = "application/vnd.aequus.users"
	FairshareBatchContentType = "application/vnd.aequus.fairshare-batch"
)

// batchVersion leads both bodies, so that a later layout can be told apart.
const batchVersion = 1

// AppendUsers appends the request body for users to dst.
func AppendUsers(dst []byte, users []string) []byte {
	n := 1 + uvarintLen(uint64(len(users)))
	for _, u := range users {
		n += uvarintLen(uint64(len(u))) + len(u)
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, batchVersion)
	dst = binary.AppendUvarint(dst, uint64(len(users)))
	for _, u := range users {
		dst = binary.AppendUvarint(dst, uint64(len(u)))
		dst = append(dst, u...)
	}
	return dst
}

// DecodeUsers decodes a request body. Every name is cut from one string copy
// of b, so decoding allocates twice whatever the length of the queue.
func DecodeUsers(b []byte) ([]string, error) {
	s := string(b)
	rest, err := batchHeader(b)
	if err != nil {
		return nil, err
	}
	n, rest, err := batchUvarint(rest)
	if err != nil {
		return nil, err
	}
	// Every name costs at least its length byte: bound the slice by what the
	// bytes can hold before making it.
	if n > uint64(len(rest)) {
		return nil, fmt.Errorf("wire: batch request claims %d users in %d bytes", n, len(rest))
	}
	users := make([]string, n)
	for i := range users {
		var l uint64
		if l, rest, err = batchUvarint(rest); err != nil {
			return nil, err
		}
		if l > uint64(len(rest)) {
			return nil, fmt.Errorf("wire: batch request user %d is cut short (%d of %d bytes)", i, len(rest), l)
		}
		off := len(b) - len(rest)
		users[i] = s[off : off+int(l)]
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after batch request", len(rest))
	}
	return users, nil
}

// AppendFairshareBatch appends the answer to users to dst. resp must answer
// users in their order, as fcs.Service.PriorityBatch does: its Entries are the
// users found, in request order, and its Missing every other user. An answer
// that is not (an entry left unmatched, or another number missing) is an
// error, not an answer with users dropped.
func AppendFairshareBatch(dst []byte, users []string, resp FairshareBatchResponse) ([]byte, error) {
	// An upper bound: every user's tag counted as missing's one byte, and
	// the time and lengths at their longest.
	n := 1 + 3*binary.MaxVarintLen64 + len(resp.Projection) + binary.MaxVarintLen64 + len(users)
	for i := range resp.Entries {
		n += uvarintLen(uint64(len(resp.Entries[i].Vector))+1) - 1 + 16 + 8*len(resp.Entries[i].Vector)
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, batchVersion)
	dst = binary.AppendVarint(dst, resp.ComputedAt.Unix())
	dst = binary.AppendUvarint(dst, uint64(resp.ComputedAt.Nanosecond()))
	dst = binary.AppendUvarint(dst, uint64(len(resp.Projection)))
	dst = append(dst, resp.Projection...)
	dst = binary.AppendUvarint(dst, uint64(len(users)))
	j, missing := 0, 0
	for _, u := range users {
		if j == len(resp.Entries) || resp.Entries[j].User != u {
			dst = append(dst, 0)
			missing++
			continue
		}
		e := &resp.Entries[j]
		j++
		dst = binary.AppendUvarint(dst, uint64(len(e.Vector))+1)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Value))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Priority))
		for _, v := range e.Vector {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	if j != len(resp.Entries) || missing != len(resp.Missing) {
		return dst, fmt.Errorf("wire: batch answer of %d entries and %d missing is not in the order of the %d users asked for (%d entries matched)",
			len(resp.Entries), len(resp.Missing), len(users), j)
	}
	return dst, nil
}

// DecodeFairshareBatch decodes the answer to users. The entries take their
// names from users and their vectors from one shared backing array, so
// decoding allocates a few times whatever the length of the queue. An answer
// about another number of users than were asked for is an error.
func DecodeFairshareBatch(b []byte, users []string) (FairshareBatchResponse, error) {
	var resp FairshareBatchResponse
	rest, err := batchHeader(b)
	if err != nil {
		return resp, err
	}
	var ux uint64
	if ux, rest, err = batchUvarint(rest); err != nil {
		return resp, err
	}
	sec := int64(ux >> 1) // binary.AppendVarint's zigzag
	if ux&1 != 0 {
		sec = ^sec
	}
	var nsec uint64
	if nsec, rest, err = batchUvarint(rest); err != nil {
		return resp, err
	}
	if nsec >= uint64(time.Second) {
		return resp, fmt.Errorf("wire: batch answer computed at %d nanoseconds past a second", nsec)
	}
	resp.ComputedAt = time.Unix(sec, int64(nsec)).UTC()
	var l uint64
	if l, rest, err = batchUvarint(rest); err != nil {
		return resp, err
	}
	if l > uint64(len(rest)) {
		return resp, fmt.Errorf("wire: batch answer projection is cut short (%d of %d bytes)", len(rest), l)
	}
	resp.Projection, rest = string(rest[:l]), rest[l:]
	var n uint64
	if n, rest, err = batchUvarint(rest); err != nil {
		return resp, err
	}
	if n != uint64(len(users)) {
		return resp, fmt.Errorf("wire: batch answer is about %d users, %d were asked for", n, len(users))
	}
	if n > uint64(len(rest)) {
		return resp, fmt.Errorf("wire: batch answer claims %d users in %d bytes", n, len(rest))
	}
	// Every float takes 8 of the bytes left, so this capacity is never
	// outgrown and the vectors sliced from it stay where they are.
	floats := make([]float64, 0, len(rest)/8)
	resp.Entries = make([]FairshareResponse, 0, n)
	for _, u := range users {
		var tag uint64
		if tag, rest, err = batchUvarint(rest); err != nil {
			return resp, err
		}
		if tag == 0 {
			resp.Missing = append(resp.Missing, u)
			continue
		}
		dim := tag - 1
		if dim > uint64(len(rest))/8 || 16+8*dim > uint64(len(rest)) {
			return resp, fmt.Errorf("wire: batch answer for %q is cut short (%d bytes for a %d-element vector)", u, len(rest), dim)
		}
		e := FairshareResponse{
			User:       u,
			Value:      math.Float64frombits(binary.LittleEndian.Uint64(rest)),
			Priority:   math.Float64frombits(binary.LittleEndian.Uint64(rest[8:])),
			ComputedAt: resp.ComputedAt,
		}
		rest = rest[16:]
		if dim > 0 {
			start := len(floats)
			for k := uint64(0); k < dim; k++ {
				floats = append(floats, math.Float64frombits(binary.LittleEndian.Uint64(rest[8*k:])))
			}
			e.Vector = floats[start:len(floats):len(floats)]
			rest = rest[8*dim:]
		}
		resp.Entries = append(resp.Entries, e)
	}
	if len(rest) != 0 {
		return resp, fmt.Errorf("wire: %d trailing bytes after batch answer", len(rest))
	}
	return resp, nil
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// batchHeader checks the version byte and returns what follows it.
func batchHeader(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return nil, errors.New("wire: empty batch body")
	}
	if b[0] != batchVersion {
		return nil, fmt.Errorf("wire: unsupported batch body version %d", b[0])
	}
	return b[1:], nil
}

func batchUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("wire: batch body cut short inside a varint")
	}
	return v, b[n:], nil
}
