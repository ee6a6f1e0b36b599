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
	var owners []int32
	var nroles int
	for i := range int32(len(s.ids)) {
		if e, f := s.rels.ext[i], s.rules.ext[i]; e.end > e.start || f.end > f.start {
			owners = append(owners, i)
			nroles += len(s.roles.of(i))
		}
	}
	slices.SortFunc(owners, func(a, b int32) int { return cmp.Compare(s.ids[a], s.ids[b]) })

	// A role named once and since left with neither a policy nor a
	// relation is not saved; index maps the rest to their saved places.
	var index []int32
	saved := func(o int32) int {
		roles := s.roles.of(o)
		index = slices.Grow(index[:0], len(roles))[:len(roles)]
		clear(index)
		for _, rel := range s.rels.of(o) {
			index[rel.role] = 1
		}
		n := 0
		for r, rr := range roles {
			if index[r] == 1 || rr.start < rr.end {
				index[r] = int32(n)
				n++
			} else {
				index[r] = -1
			}
		}
		return n
	}
	for _, o := range owners {
		nroles -= len(s.roles.of(o)) - saved(o)
	}

	nrels := s.rels.live
	body := make([]byte, 0, 64+8*len(owners)+12*nroles+64*s.numPolicies+8*nrels)
	for _, f := range []float64{s.space.MinX, s.space.MinY, s.space.MaxX, s.space.MaxY, s.dayLen} {
		body = codec.AppendFloat(body, f)
	}
	for _, n := range []int{len(owners), nroles, s.numPolicies, nrels} {
		body = codec.AppendUvarint(body, uint64(n))
	}
	for _, o := range owners {
		rules, rels := s.rules.of(o), s.rels.of(o)
		body = codec.AppendUvarint(body, uint64(s.ids[o]))
		body = codec.AppendUvarint(body, uint64(saved(o)))
		for r, rr := range s.roles.of(o) {
			if index[r] < 0 {
				continue
			}
			body = codec.AppendBytes(body, []byte(s.roleName(rr)))
			body = codec.AppendUvarint(body, uint64(rr.end-rr.start))
			for _, p := range rules[rr.start:rr.end] {
				for _, f := range []float64{p.Locr.MinX, p.Locr.MinY, p.Locr.MaxX, p.Locr.MaxY, p.Tint.Start, p.Tint.End} {
					body = codec.AppendFloat(body, f)
				}
			}
		}
		body = codec.AppendUvarint(body, uint64(len(rels)))
		for _, rel := range rels {
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

// decodeSnapshot reads a snapshot body straight into the store's columns,
// each allocated once at the length the file's totals give, and hands the
// owners to the bulk builder. Role names are interned as they are read,
// their bytes gathered in one buffer that becomes one string at the end.
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

	s.ids = make([]UserID, 0, nOwners)
	s.roles = column[roleRange]{all: make([]roleRange, 0, nRoles), ext: make([]extent, 0, nOwners)}
	s.rules = column[rule]{all: make([]rule, 0, nRules), ext: make([]extent, 0, nOwners)}
	s.rels = column[relation]{all: make([]relation, 0, nRels), ext: make([]extent, 0, nOwners)}
	// The distinct names: text holds their bytes, ends where each stops.
	var text []byte
	var ends []int32
	nameOf := func(id int32) []byte {
		if id == 0 {
			return text[:ends[0]]
		}
		return text[ends[id-1]:ends[id]]
	}
	var used []bool
	for rd.Err() == nil && len(s.ids) < nOwners {
		id := takeUserID(rd, "owner")
		if n := len(s.ids); n > 0 && id <= s.ids[n-1] {
			rd.Failf("owner %d after owner %d", id, s.ids[n-1])
		}
		nr := rd.TakeCount("owner role count", 2)
		if nr > nRoles-len(s.roles.all) {
			rd.Failf("owner %d has more roles than the file", id)
			break
		}
		roleBase, ruleBase := len(s.roles.all), len(s.rules.all)
		for x := range nr {
			raw := rd.TakeBytesView("role name")
			h := hashName(raw)
			name, ok := s.names.index.find(h, func(k int32) bool { return string(nameOf(k)) == string(raw) })
			if !ok {
				name = int32(len(ends))
				text = append(text, raw...)
				ends = append(ends, int32(len(text)))
				s.names.index.add(h, name, func(k int32) uint32 { return hashName(nameOf(k)) })
			}
			if x > 0 && string(nameOf(name)) <= string(nameOf(s.roles.all[len(s.roles.all)-1].name)) {
				rd.Failf("owner %d: role %q after %q", id, nameOf(name), nameOf(s.roles.all[len(s.roles.all)-1].name))
			}
			k := rd.TakeCount("role policy count", 6)
			if k > nRules-len(s.rules.all) {
				rd.Failf("owner %d has more policies than the file", id)
			}
			if rd.Err() != nil {
				break
			}
			first := len(s.rules.all)
			for range k {
				p := rule{
					Locr: Region{MinX: rd.TakeFloat("locr"), MinY: rd.TakeFloat("locr"), MaxX: rd.TakeFloat("locr"), MaxY: rd.TakeFloat("locr")},
					Tint: TimeInterval{Start: rd.TakeFloat("tint"), End: rd.TakeFloat("tint")},
				}
				if !p.Locr.Valid() {
					rd.Failf("owner %d: invalid locr %v", id, p.Locr)
				}
				if slices.Contains(s.rules.all[first:], p) { // as AddPolicy checks
					rd.Failf("owner %d: policy %v twice under role %q", id, p, nameOf(name))
				}
				s.rules.all = append(s.rules.all, p)
			}
			s.roles.all = append(s.roles.all, roleRange{
				name:  name,
				start: int32(first - ruleBase),
				end:   int32(len(s.rules.all) - ruleBase),
			})
		}
		nl := rd.TakeCount("owner relation count", 2)
		if nl > nRels-len(s.rels.all) {
			rd.Failf("owner %d has more relations than the file", id)
		}
		if rd.Err() != nil {
			break
		}
		relBase := len(s.rels.all)
		used = slices.Grow(used[:0], nr)[:nr]
		clear(used)
		for x := range nl {
			peer := takeUserID(rd, "relation peer")
			r := rd.TakeUvarint("relation role")
			switch {
			case x > 0 && peer <= s.rels.all[len(s.rels.all)-1].peer:
				rd.Failf("owner %d: peer %d after peer %d", id, peer, s.rels.all[len(s.rels.all)-1].peer)
			case r >= uint64(nr):
				rd.Failf("owner %d: relation to %d names role %d of %d", id, peer, r, nr)
			default:
				used[r] = true
			}
			if rd.Err() != nil {
				break
			}
			s.rels.all = append(s.rels.all, relation{peer: peer, role: int32(r)})
		}
		for x, rr := range s.roles.all[roleBase:] {
			if rr.start == rr.end && !used[x] {
				rd.Failf("owner %d: role %q carries neither a policy nor a relation", id, nameOf(rr.name))
			}
		}
		if nr == 0 {
			rd.Failf("owner %d holds nothing", id)
		}
		s.ids = append(s.ids, id)
		s.roles.endSlot(roleBase)
		s.rules.endSlot(ruleBase)
		s.rels.endSlot(relBase)
	}
	if rd.Err() == nil && (len(s.roles.all) != nRoles || len(s.rules.all) != nRules || len(s.rels.all) != nRels) {
		rd.Failf("owners hold %d roles, %d policies and %d relations; the file counts %d, %d and %d",
			len(s.roles.all), len(s.rules.all), len(s.rels.all), nRoles, nRules, nRels)
	}
	rd.ExpectEnd()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	all := string(text)
	s.names.names = make([]Role, len(ends))
	for k := range ends {
		start := int32(0)
		if k > 0 {
			start = ends[k-1]
		}
		s.names.names[k] = Role(all[start:ends[k]])
	}
	s.adopt()
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
