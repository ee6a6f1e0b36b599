package policy

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

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
	for owner, peers := range s.relations {
		for peer, role := range peers {
			snap.Relations = append(snap.Relations, relationRec{Owner: owner, Peer: peer, Role: role})
		}
	}
	sort.Slice(snap.Relations, func(i, j int) bool {
		a, b := snap.Relations[i], snap.Relations[j]
		if a.Owner != b.Owner {
			return a.Owner < b.Owner
		}
		return a.Peer < b.Peer
	})
	for owner, byRole := range s.policies {
		roles := make([]Role, 0, len(byRole))
		for r := range byRole {
			roles = append(roles, r)
		}
		sort.Slice(roles, func(i, j int) bool { return roles[i] < roles[j] })
		for _, r := range roles {
			for _, p := range byRole[r] { // insertion order preserved
				snap.Policies = append(snap.Policies, policyRec{Owner: owner, Policy: p})
			}
		}
	}
	sort.SliceStable(snap.Policies, func(i, j int) bool {
		return snap.Policies[i].Owner < snap.Policies[j].Owner
	})
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
	// Policies first so relation re-indexing sees them; AddPolicy also
	// handles the reverse order, so this is belt and braces.
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
