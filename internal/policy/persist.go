package policy

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/codec"
)

// Persistence: policies are the slowly-changing state of the system (the
// paper notes "policy updates are usually infrequent", Sec. 5.1), so a
// deployment snapshots the policy store and rebuilds indexes from live
// movement data. The snapshot is the store's own layout, owner by owner,
// on the shared internal/codec conventions (uvarint, vfloat, vbytes):
//
//	magic    1 byte  0xC7 (codec.MagicPolicySnapshot)
//	version  1 byte  0x02
//	crc      uvarint CRC-32C of the body
//	body     vbytes
//
// and the body:
//
//	space    vfloat×4  minX minY maxX maxY
//	dayLen   vfloat
//	owners   uvarint   owners in the file
//	roles    uvarint   role-table entries, all owners together
//	rules    uvarint   policies, all owners together
//	rels     uvarint   relations, all owners together
//	owner × owners, ascending by id:
//		id      uvarint
//		nroles  uvarint
//		role × nroles, ascending by name:
//			name    vbytes
//			nrules  uvarint
//			rule × nrules, in insertion order: locr vfloat×4 · tint vfloat×2
//		nrels   uvarint
//		relation × nrels, ascending by peer:
//			peer    uvarint
//			role    uvarint  index into the owner's role table
//
// An owner is a user with a relation or a policy, and its role table holds
// exactly the roles that carry a policy or a relation: identical stores
// serialize identically. Load reads exactly that and hands the owners to
// the bulk builder; bytes that do not open with the magic and the current
// version — the gob-bodied version 1 among them — are refused with
// codec.ErrUnsupportedFormat, and any other departure from the layout,
// the orders included, as corrupt.

// envelopeVersion is the snapshot format's revision.
const envelopeVersion = 2

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// Save writes the store's full state to w.
func (s *Store) Save(w io.Writer) error {
	owners := make([]*userPolicies, 0, len(s.users))
	var nroles, nrels int
	for i := range s.users {
		if u := &s.users[i]; len(u.rels) > 0 || len(u.rules) > 0 {
			owners = append(owners, u)
			nroles += len(u.roles)
			nrels += len(u.rels)
		}
	}
	slices.SortFunc(owners, func(a, b *userPolicies) int { return cmp.Compare(a.id, b.id) })

	// A role named once and since left with neither a policy nor a
	// relation is not saved; index maps the rest to their saved places.
	var index []int32
	saved := func(u *userPolicies) int {
		index = slices.Grow(index[:0], len(u.roles))[:len(u.roles)]
		clear(index)
		for _, rel := range u.rels {
			index[rel.role] = 1
		}
		n := 0
		for r, rr := range u.roles {
			if index[r] == 1 || rr.start < rr.end {
				index[r] = int32(n)
				n++
			} else {
				index[r] = -1
			}
		}
		return n
	}
	for _, u := range owners {
		nroles -= len(u.roles) - saved(u)
	}

	body := make([]byte, 0, 64+8*len(owners)+12*nroles+64*s.numPolicies+8*nrels)
	for _, f := range []float64{s.space.MinX, s.space.MinY, s.space.MaxX, s.space.MaxY, s.dayLen} {
		body = codec.AppendFloat(body, f)
	}
	for _, n := range []int{len(owners), nroles, s.numPolicies, nrels} {
		body = codec.AppendUvarint(body, uint64(n))
	}
	for _, u := range owners {
		body = codec.AppendUvarint(body, uint64(u.id))
		body = codec.AppendUvarint(body, uint64(saved(u)))
		for r, rr := range u.roles {
			if index[r] < 0 {
				continue
			}
			body = codec.AppendBytes(body, []byte(rr.name))
			body = codec.AppendUvarint(body, uint64(rr.end-rr.start))
			for _, p := range u.rules[rr.start:rr.end] {
				for _, f := range []float64{p.Locr.MinX, p.Locr.MinY, p.Locr.MaxX, p.Locr.MaxY, p.Tint.Start, p.Tint.End} {
					body = codec.AppendFloat(body, f)
				}
			}
		}
		body = codec.AppendUvarint(body, uint64(len(u.rels)))
		for _, rel := range u.rels {
			body = codec.AppendUvarint(body, uint64(rel.peer))
			body = codec.AppendUvarint(body, uint64(index[rel.role]))
		}
	}
	return writeSnapshot(w, body)
}

// writeSnapshot writes body in the snapshot envelope.
func writeSnapshot(w io.Writer, body []byte) error {
	head := []byte{codec.MagicPolicySnapshot, envelopeVersion}
	head = codec.AppendUvarint(head, uint64(crc32.Checksum(body, snapshotCRC)))
	head = codec.AppendUvarint(head, uint64(len(body)))
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("policy: save: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("policy: save: %w", err)
	}
	return nil
}

// Load reads a snapshot written by Save and reconstructs the store.
func Load(r io.Reader) (*Store, error) {
	var data []byte
	var err error
	if sized, ok := r.(interface{ Len() int }); ok {
		// A bytes.Reader over a file already read, say: one copy, no growth.
		data = make([]byte, sized.Len())
		_, err = io.ReadFull(r, data)
	} else {
		data, err = io.ReadAll(r)
	}
	if err != nil {
		return nil, fmt.Errorf("policy: load: %w", err)
	}
	if len(data) < 2 || data[0] != codec.MagicPolicySnapshot || data[1] != envelopeVersion {
		return nil, fmt.Errorf("policy: load: %w: not a version %d snapshot envelope",
			codec.ErrUnsupportedFormat, envelopeVersion)
	}
	rd := codec.NewReader(data, 2)
	crc := rd.TakeUvarint("snapshot crc")
	n := rd.TakeCount("snapshot body length", 1)
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("policy: corrupt snapshot: %w", err)
	}
	body := data[len(data)-rd.Len():]
	if n != len(body) {
		return nil, fmt.Errorf("policy: corrupt snapshot: body of %d bytes, %d follow", n, len(body))
	}
	if crc != uint64(crc32.Checksum(body, snapshotCRC)) {
		return nil, fmt.Errorf("policy: corrupt snapshot: checksum mismatch")
	}
	s, err := decodeSnapshot(codec.NewReader(body, 0))
	if err != nil {
		return nil, fmt.Errorf("policy: corrupt snapshot: %w", err)
	}
	return s, nil
}

// decodeSnapshot reads a snapshot body into whole owners, carved at their
// final lengths from one array per kind, and hands them to the bulk
// builder.
func decodeSnapshot(rd *codec.Reader) (*Store, error) {
	var dom [5]float64
	for i := range dom {
		dom[i] = rd.TakeFloat("domain")
	}
	nOwners := rd.TakeCount("owner count", 1)
	nRoles := rd.TakeCount("role count", 1)
	nRules := rd.TakeCount("policy count", 1)
	nRels := rd.TakeCount("relation count", 1)
	// At least 3 bytes an owner (id and two counts), 2 a role (name
	// length, rule count), 6 a rule and 2 a relation: totals the rest of
	// the body cannot back are refused before anything is sized by them.
	if rd.Err() == nil && 3*nOwners+2*nRoles+6*nRules+2*nRels > rd.Len() {
		rd.Failf("%d owners, %d roles, %d policies and %d relations exceed %d remaining bytes",
			nOwners, nRoles, nRules, nRels, rd.Len())
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	s, err := NewStore(Region{MinX: dom[0], MinY: dom[1], MaxX: dom[2], MaxY: dom[3]}, dom[4])
	if err != nil {
		return nil, err
	}

	owners := make([]userPolicies, nOwners)
	roles := make([]roleRange, nRoles)
	rules := make([]rule, nRules)
	rels := make([]relation, nRels)
	names := make(map[string]Role) // one string per distinct role name
	var used []bool
	ro, ru, re := 0, 0, 0 // next free entry of roles, rules, rels
	for i := range owners {
		u := &owners[i]
		u.id = takeUserID(rd, "owner")
		if i > 0 && u.id <= owners[i-1].id {
			rd.Failf("owner %d after owner %d", u.id, owners[i-1].id)
		}
		nr := rd.TakeCount("owner role count", 2)
		if nr > nRoles-ro {
			rd.Failf("owner %d has more roles than the file", u.id)
			break
		}
		u.roles = roles[ro : ro+nr : ro+nr]
		ro += nr
		base := ru
		for x := range u.roles {
			raw := rd.TakeBytesView("role name")
			name, ok := names[string(raw)]
			if !ok {
				name = Role(raw)
				names[string(raw)] = name
			}
			if x > 0 && name <= u.roles[x-1].name {
				rd.Failf("owner %d: role %q after %q", u.id, name, u.roles[x-1].name)
			}
			k := rd.TakeCount("role policy count", 6)
			if k > nRules-ru {
				rd.Failf("owner %d has more policies than the file", u.id)
			}
			if rd.Err() != nil {
				break
			}
			first := ru
			for ; ru < first+k; ru++ {
				p := rule{
					Locr: Region{MinX: rd.TakeFloat("locr"), MinY: rd.TakeFloat("locr"), MaxX: rd.TakeFloat("locr"), MaxY: rd.TakeFloat("locr")},
					Tint: TimeInterval{Start: rd.TakeFloat("tint"), End: rd.TakeFloat("tint")},
				}
				if !p.Locr.Valid() {
					rd.Failf("owner %d: invalid locr %v", u.id, p.Locr)
				}
				if slices.Contains(rules[first:ru], p) { // as AddPolicy checks
					rd.Failf("owner %d: policy %v twice under role %q", u.id, p, name)
				}
				rules[ru] = p
			}
			u.roles[x] = roleRange{name: name, start: int32(first - base), end: int32(ru - base)}
		}
		u.rules = rules[base:ru:ru]
		nl := rd.TakeCount("owner relation count", 2)
		if nl > nRels-re {
			rd.Failf("owner %d has more relations than the file", u.id)
		}
		if rd.Err() != nil {
			break
		}
		u.rels = rels[re : re+nl : re+nl]
		re += nl
		used = slices.Grow(used[:0], nr)[:nr]
		clear(used)
		for x := range u.rels {
			peer := takeUserID(rd, "relation peer")
			r := rd.TakeUvarint("relation role")
			switch {
			case x > 0 && peer <= u.rels[x-1].peer:
				rd.Failf("owner %d: peer %d after peer %d", u.id, peer, u.rels[x-1].peer)
			case r >= uint64(nr):
				rd.Failf("owner %d: relation to %d names role %d of %d", u.id, peer, r, nr)
			default:
				u.rels[x] = relation{peer: peer, role: int32(r)}
				used[r] = true
			}
		}
		for x, rr := range u.roles {
			if rr.start == rr.end && !used[x] {
				rd.Failf("owner %d: role %q carries neither a policy nor a relation", u.id, rr.name)
			}
		}
		if nr == 0 {
			rd.Failf("owner %d holds nothing", u.id)
		}
		if rd.Err() != nil {
			break
		}
	}
	if rd.Err() == nil && (ro != nRoles || ru != nRules || re != nRels) {
		rd.Failf("owners hold %d roles, %d policies and %d relations; the file counts %d, %d and %d",
			ro, ru, re, nRoles, nRules, nRels)
	}
	rd.ExpectEnd()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	s.adopt(owners)
	return s, nil
}

// takeUserID reads a uvarint that must fit a user id.
func takeUserID(rd *codec.Reader, what string) UserID {
	v := rd.TakeUvarint(what)
	if v > math.MaxUint32 {
		rd.Failf("%s %d overflows a user id", what, v)
		return 0
	}
	return UserID(v)
}
