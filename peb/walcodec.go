package peb

import (
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/core"
)

// Binary WAL record codec.
//
// A hand-rolled, append-style binary format on the shared primitives in
// internal/codec: the encoder only appends to a caller-owned buffer (zero
// allocations once the buffer has warmed up), and the decoder is a strict
// bounds-checked reader that returns an error — never panics — on
// arbitrary input.
//
// Record layout (uvarint/vfloat/vbytes as defined in internal/codec):
//
//	magic    1 byte  0xB6 (codec.MagicWALRecord)
//	version  1 byte  0x03
//	seq      uvarint
//	nextSV   vfloat
//	txnID    uvarint
//	parts    numParts uvarint · numParts × part — only when txnID ≠ 0
//	ops      numOps uvarint · numOps × op
//
// A part is one other participant's share of a cross-shard transaction,
// which only the coordinator's record carries (numParts is 0 on a
// participant's sub-record):
//
//	part     id uvarint · nextSV vfloat · numOps uvarint · numOps × op
//
// Each op starts with a 1-byte kind, followed by exactly the fields that
// kind uses:
//
//	0 setSV         uid uvarint · sv vfloat
//	1 upsert        uid uvarint · x y vx vy t vfloat×5
//	2 remove        uid uvarint
//	3 relation      own uvarint · peer uvarint · role vbytes
//	4 grant         own uvarint · role vbytes · locr vfloat×4 · tint vfloat×2
//	5 encode        n uvarint · n×(uid uvarint · sv vfloat) · maxSV vfloat · groups uvarint
//
// Kind 6 (a whole-store policy load) is retired and refused like any
// unknown kind. The writer emits the policy and rebuild operations (3–5),
// then the index
// operations (0–2) — opList's two groups. The decoder files each op under
// its group wherever it sits, which loses nothing: the groups are
// independent, and applyOps runs the index group first whatever the order.

// walCodecVersion is the one record format revision the decoder reads;
// bytes opening with anything but the magic and this version are refused
// with ErrUnsupportedFormat.
const walCodecVersion = 3

// appendRecord encodes rec after b (usually b[:0] of a reused buffer) and
// returns the extended slice. It cannot fail: every walRecord value is
// encodable.
func appendRecord(b []byte, rec *walRecord) []byte {
	b = append(b, codec.MagicWALRecord, walCodecVersion)
	b = codec.AppendUvarint(b, rec.Seq)
	b = codec.AppendFloat(b, rec.NextSV)
	b = codec.AppendUvarint(b, rec.TxnID)
	if rec.TxnID != 0 {
		b = codec.AppendUvarint(b, uint64(len(rec.Parts)))
		for i := range rec.Parts {
			part := &rec.Parts[i]
			b = codec.AppendUvarint(b, uint64(part.ID))
			b = codec.AppendFloat(b, part.NextSV)
			b = appendOps(b, &part.Ops)
		}
	}
	return appendOps(b, &rec.Ops)
}

// appendOps encodes an op list: its count, the policy and rebuild
// operations, then the index operations.
func appendOps(b []byte, ops *opList) []byte {
	b = codec.AppendUvarint(b, uint64(ops.len()))
	for i := range ops.Pol {
		op := &ops.Pol[i]
		b = append(b, byte(op.Kind))
		switch op.Kind {
		case polOpRelation:
			b = codec.AppendUvarint(b, uint64(op.Own))
			b = codec.AppendUvarint(b, uint64(op.Peer))
			b = codec.AppendBytes(b, []byte(op.Role))
		case polOpGrant:
			b = codec.AppendUvarint(b, uint64(op.Own))
			b = codec.AppendBytes(b, []byte(op.Role))
			b = codec.AppendFloat(b, op.Locr.MinX)
			b = codec.AppendFloat(b, op.Locr.MinY)
			b = codec.AppendFloat(b, op.Locr.MaxX)
			b = codec.AppendFloat(b, op.Locr.MaxY)
			b = codec.AppendFloat(b, op.Tint.Start)
			b = codec.AppendFloat(b, op.Tint.End)
		case polOpEncode:
			enc := op.Rebuild
			b = codec.AppendUvarint(b, uint64(len(enc.Assign)))
			for _, r := range enc.Assign {
				b = codec.AppendUvarint(b, uint64(r.UID))
				b = codec.AppendFloat(b, r.SV)
			}
			b = codec.AppendFloat(b, enc.MaxSV)
			b = codec.AppendUvarint(b, uint64(enc.Groups))
		default:
			// Unreachable for records we build; a kind added without codec
			// support round-trips to an "unknown op kind" decode error
			// rather than silently dropping fields.
		}
	}
	for i := range ops.Idx {
		op := &ops.Idx[i]
		b = append(b, byte(op.Kind))
		switch op.Kind {
		case core.OpSetSV:
			b = codec.AppendUvarint(b, uint64(op.UID))
			b = codec.AppendFloat(b, op.SV)
		case core.OpUpsert:
			b = codec.AppendUvarint(b, uint64(op.Obj.UID))
			b = codec.AppendFloat(b, op.Obj.X)
			b = codec.AppendFloat(b, op.Obj.Y)
			b = codec.AppendFloat(b, op.Obj.VX)
			b = codec.AppendFloat(b, op.Obj.VY)
			b = codec.AppendFloat(b, op.Obj.T)
		case core.OpRemove:
			b = codec.AppendUvarint(b, uint64(op.UID))
		}
	}
	return b
}

// takeUserID reads a uvarint that must fit a 32-bit user id.
func takeUserID(r *codec.Reader, what string) UserID {
	v := r.TakeUvarint(what)
	if v > math.MaxUint32 {
		r.Failf("%s %d overflows user id", what, v)
		return 0
	}
	return UserID(v)
}

// corruptRecordError wraps a record's decode failure. It is formatted
// only when read: refusing a damaged record allocates the two errors and
// nothing else.
type corruptRecordError struct{ err error }

func (e *corruptRecordError) Error() string { return "peb: corrupt wal record: " + e.err.Error() }
func (e *corruptRecordError) Unwrap() error { return e.err }

// decodeRecord parses one log record. Strictness: the stamp must be the
// current one, every field is bounds-checked, counts are refused before
// anything is sized by them when the remaining bytes could not back them,
// unknown op kinds and trailing garbage are rejected. Never panics on
// arbitrary input.
func decodeRecord(data []byte) (walRecord, error) {
	if len(data) < 2 || data[0] != codec.MagicWALRecord || data[1] != walCodecVersion {
		return walRecord{}, fmt.Errorf("peb: wal record: %w: not a version %d binary-codec record",
			ErrUnsupportedFormat, walCodecVersion)
	}
	r := codec.NewReader(data, 2) // past the stamp
	var rec walRecord
	rec.Seq = r.TakeUvarint("seq")
	rec.NextSV = r.TakeFloat("nextSV")
	rec.TxnID = r.TakeUvarint("txnID")
	if rec.TxnID != 0 {
		// A part is at least an id, a cursor and an op count.
		if n := r.TakeCount("participant count", 3); n > 0 {
			rec.Parts = make([]txnPart, n)
		}
		for i := range rec.Parts {
			part := &rec.Parts[i]
			id := r.TakeUvarint("participant id")
			if id > math.MaxInt32 {
				r.Failf("participant id %d implausible", id)
			}
			part.ID = int(id)
			part.NextSV = r.TakeFloat("participant nextSV")
			part.Ops = takeOps(r)
		}
	}
	rec.Ops = takeOps(r)
	r.ExpectEnd()
	if err := r.Err(); err != nil {
		return walRecord{}, &corruptRecordError{err}
	}
	return rec, nil
}

// takeOps decodes an op list (see appendOps), filing each op under its
// group. After a failure it returns what it read; the reader holds the
// error.
func takeOps(r *codec.Reader) opList {
	var ops opList
	// Each op costs at least one byte on the wire.
	numOps := r.TakeCount("op count", 1)
	if r.Err() != nil {
		return ops
	}
	ops.Idx = make([]core.BatchOp, 0, numOps)
	for i := 0; i < numOps && r.Err() == nil; i++ {
		switch kind := r.TakeByte("op kind"); kind {
		case byte(core.OpSetSV):
			ops.Idx = append(ops.Idx, core.BatchOp{Kind: core.OpSetSV,
				UID: takeUserID(r, "setSV uid"), SV: r.TakeFloat("setSV sv")})
		case byte(core.OpUpsert):
			ops.Idx = append(ops.Idx, core.BatchOp{Kind: core.OpUpsert, Obj: Object{
				UID: takeUserID(r, "upsert uid"),
				X:   r.TakeFloat("upsert x"),
				Y:   r.TakeFloat("upsert y"),
				VX:  r.TakeFloat("upsert vx"),
				VY:  r.TakeFloat("upsert vy"),
				T:   r.TakeFloat("upsert t"),
			}})
		case byte(core.OpRemove):
			ops.Idx = append(ops.Idx, core.BatchOp{Kind: core.OpRemove, UID: takeUserID(r, "remove uid")})
		case byte(polOpRelation):
			ops.Pol = append(ops.Pol, polOp{Kind: polOpRelation,
				Own:  takeUserID(r, "relation owner"),
				Peer: takeUserID(r, "relation peer"),
				Role: Role(r.TakeBytes("relation role")),
			})
		case byte(polOpGrant):
			ops.Pol = append(ops.Pol, polOp{Kind: polOpGrant,
				Own:  takeUserID(r, "grant owner"),
				Role: Role(r.TakeBytes("grant role")),
				Locr: Region{
					MinX: r.TakeFloat("grant minX"),
					MinY: r.TakeFloat("grant minY"),
					MaxX: r.TakeFloat("grant maxX"),
					MaxY: r.TakeFloat("grant maxY"),
				},
				Tint: TimeInterval{Start: r.TakeFloat("grant start"), End: r.TakeFloat("grant end")},
			})
		case byte(polOpEncode):
			enc := &rebuildOp{}
			// Each assignment entry needs at least a uid and an sv varint.
			if n := r.TakeCount("assignment count", 2); n > 0 {
				enc.Assign = make([]assignRec, n)
			}
			for j := range enc.Assign {
				enc.Assign[j].UID = takeUserID(r, "assignment uid")
				enc.Assign[j].SV = r.TakeFloat("assignment sv")
			}
			enc.MaxSV = r.TakeFloat("assignment maxSV")
			g := r.TakeUvarint("assignment groups")
			if g > math.MaxInt32 {
				r.Failf("assignment groups %d implausible", g)
			}
			enc.Groups = int(g)
			ops.Pol = append(ops.Pol, polOp{Kind: polOpEncode, Rebuild: enc})
		default:
			r.Failf("unknown op kind %d", kind)
		}
	}
	return ops
}
