package policy_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/workload"
)

// The policy layer's batch paths at the end-to-end benchmark's scale:
// 20 000 users with 20 policies each, generated once.
var (
	benchOnce sync.Once
	benchData *workload.Dataset
	benchErr  error
)

func benchDataset(b *testing.B) *workload.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		cfg := workload.DefaultConfig()
		cfg.NumUsers, cfg.PoliciesPerUser, cfg.Seed = 20000, 20, 1
		benchData, benchErr = workload.Generate(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchData
}

func saved(b *testing.B, s *policy.Store) []byte {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkPolicySave times a checkpoint's policies file.
func BenchmarkPolicySave(b *testing.B) {
	s := benchDataset(b).Policies
	b.SetBytes(int64(len(saved(b, s))))
	for b.Loop() {
		saved(b, s)
	}
}

// BenchmarkPolicyLoad times a reopen's read of the policies file.
func BenchmarkPolicyLoad(b *testing.B) {
	data := saved(b, benchDataset(b).Policies)
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		if _, err := policy.Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyBulkApply times the op list a bulk load commits — every
// grant as a relation and a policy — built into an empty store.
func BenchmarkPolicyBulkApply(b *testing.B) {
	s := benchDataset(b).Policies
	bulk := policy.NewBulk(s.NumPolicies(), s.NumPolicies())
	s.ForEachGrant(func(owner, viewer policy.UserID, p policy.Policy) bool {
		bulk.SetRelation(owner, viewer, p.Role)
		bulk.AddPolicy(owner, p)
		return true
	})
	for b.Loop() {
		fresh, err := policy.NewStore(s.Space(), s.DayLength())
		if err != nil {
			b.Fatal(err)
		}
		if err := bulk.ApplyTo(fresh); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssignCommunities times the engine's policy encoding over every
// user, into the default key's sequence-value field.
func BenchmarkAssignCommunities(b *testing.B) {
	ds := benchDataset(b)
	users := make([]policy.UserID, len(ds.Objects))
	for i, o := range ds.Objects {
		users[i] = policy.UserID(o.UID)
	}
	field := policy.SVCodec{Bits: core.DefaultSVBits, FracBits: core.DefaultSVFracBits}
	for b.Loop() {
		if _, err := policy.AssignCommunities(ds.Policies, users, field); err != nil {
			b.Fatal(err)
		}
	}
}
