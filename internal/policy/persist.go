package policy

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/codec"
)

// Persistence: policies are the slowly-changing state of the system (the
// paper notes "policy updates are usually infrequent", Sec. 5.1), so a
// deployment snapshots the policy store and rebuilds indexes from live
// movement data. The body is a gob stream of a versioned snapshot;
// iteration orders are canonicalized so identical stores serialize
// identically.
//
// Save wraps the gob body in a small integrity envelope on the shared
// internal/codec conventions:
//
//	magic    1 byte  0xC7 (codec.MagicPolicySnapshot)
//	version  1 byte  0x01
//	crc      uvarint CRC-32C of the body
//	body     vbytes  the gob snapshot stream
//
// Load reads exactly that: bytes that do not open with the magic and the
// current versions are refused with codec.ErrUnsupportedFormat.

const snapshotVersion = 1

// envelopeVersion is the integrity envelope's format revision.
const envelopeVersion = 1

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// snapshot is the serialized form of a Store.
type snapshot struct {
	Version   int
	Space     Region
	DayLen    float64
	Relations []relationRec
	Policies  []policyRec
}

type relationRec struct {
	Owner, Peer UserID
	Role        Role
}

type policyRec struct {
	Owner  UserID
	Policy Policy
}

// Save writes the store's full state to w.
func (s *Store) Save(w io.Writer) error {
	snap := snapshot{
		Version: snapshotVersion,
		Space:   s.space,
		DayLen:  s.dayLen,
	}
	owners := make([]*userPolicies, 0, len(s.users))
	nrels := 0
	for i := range s.users {
		if u := &s.users[i]; len(u.rels) > 0 || len(u.rules) > 0 {
			owners = append(owners, u)
			nrels += len(u.rels)
		}
	}
	slices.SortFunc(owners, func(a, b *userPolicies) int { return cmp.Compare(a.id, b.id) })
	snap.Relations = make([]relationRec, 0, nrels)
	snap.Policies = make([]policyRec, 0, s.numPolicies)
	// An owner's relations are sorted by peer and its rules by role name,
	// then insertion order: the records come out in the snapshot's order.
	for _, u := range owners {
		for _, rel := range u.rels {
			snap.Relations = append(snap.Relations, relationRec{Owner: u.id, Peer: rel.peer, Role: u.roles[rel.role].name})
		}
		for _, rr := range u.roles {
			for _, p := range u.rules[rr.start:rr.end] {
				snap.Policies = append(snap.Policies, policyRec{Owner: u.id, Policy: rr.policy(p)})
			}
		}
	}
	return writeSnapshot(w, snap)
}

// writeSnapshot gob-encodes snap and writes it in the integrity envelope.
func writeSnapshot(w io.Writer, snap snapshot) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(snap); err != nil {
		return fmt.Errorf("policy: save: %w", err)
	}
	out := make([]byte, 0, body.Len()+16)
	out = append(out, codec.MagicPolicySnapshot, envelopeVersion)
	out = codec.AppendUvarint(out, uint64(crc32.Checksum(body.Bytes(), snapshotCRC)))
	out = codec.AppendBytes(out, body.Bytes())
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("policy: save: %w", err)
	}
	return nil
}

// Load reads a snapshot written by Save and reconstructs the store.
func Load(r io.Reader) (*Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("policy: load: %w", err)
	}
	if len(data) < 2 || data[0] != codec.MagicPolicySnapshot || data[1] != envelopeVersion {
		return nil, fmt.Errorf("policy: load: %w: not a version %d snapshot envelope",
			codec.ErrUnsupportedFormat, envelopeVersion)
	}
	rd := codec.NewReader(data, 2)
	crc := rd.TakeUvarint("snapshot crc")
	body := rd.TakeBytes("snapshot body")
	rd.ExpectEnd()
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("policy: corrupt snapshot: %w", err)
	}
	if crc != uint64(crc32.Checksum(body, snapshotCRC)) {
		return nil, fmt.Errorf("policy: corrupt snapshot: checksum mismatch")
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("policy: load: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("policy: load: %w: snapshot version %d (want %d)",
			codec.ErrUnsupportedFormat, snap.Version, snapshotVersion)
	}
	s, err := NewStore(snap.Space, snap.DayLen)
	if err != nil {
		return nil, fmt.Errorf("policy: load: %w", err)
	}
	// Policies first, so each relation finds its role's policies; in Save's
	// order every record appends to its slices.
	for _, pr := range snap.Policies {
		if err := s.AddPolicy(pr.Owner, pr.Policy); err != nil {
			return nil, fmt.Errorf("policy: load: %w", err)
		}
	}
	for _, rr := range snap.Relations {
		s.SetRelation(rr.Owner, rr.Peer, rr.Role)
	}
	return s, nil
}
