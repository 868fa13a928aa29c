package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cid"
	"repro/internal/routing"
	"repro/internal/testnet"
	"repro/internal/transport"
)

// TestRepublishBatchesPerTargetPeer is the acceptance test for the
// batched republish path: republishing M CIDs whose records land on P
// distinct target peers issues at most P publish RPCs per cycle —
// asserted against the simulator's network-wide budget — instead of
// the old M × (walk + store fan-out).
func TestRepublishBatchesPerTargetPeer(t *testing.T) {
	tn := buildSmallNet(t, 50)
	publisher := tn.Nodes[0]
	ctx := context.Background()

	const m = 6
	var cids []cid.Cid
	for i := 0; i < m; i++ {
		pub, err := publisher.AddAndPublish(ctx, []byte(fmt.Sprintf("republished object %d", i)))
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		cids = append(cids, pub.Cid)
	}
	// Publish order, on every call: a republish cycle's RPC order follows
	// it, and seeded runs must replay that cycle identically.
	for call := 0; call < 5; call++ {
		got := publisher.Provided()
		if len(got) != m {
			t.Fatalf("tracking %d cids, want %d", len(got), m)
		}
		for i := range cids {
			if !got[i].Equal(cids[i]) {
				t.Fatalf("Provided()[%d] = %s, want publish order %s", i, got[i], cids[i])
			}
		}
	}

	// Cycle 0: every record was just confirmed, so the batch skips all
	// targets — the ack-ledger half of the contract.
	st := publisher.Republish(ctx)
	if st.Batch.StoreRPCs != 0 {
		t.Errorf("republish right after publish sent %d store RPCs, want 0 (all acks fresh)", st.Batch.StoreRPCs)
	}
	if st.Batch.Provided != m {
		t.Errorf("fresh cycle Provided = %d, want %d", st.Batch.Provided, m)
	}

	// Cycle 1 (Republish advanced the ledger): the batch re-pushes every
	// record, grouped per target peer — no walks, and the republish
	// budget stays at or below the distinct target count P.
	before := tn.Net.Budget()
	res := publisher.RepublishRecords(ctx)
	spent := tn.Net.Budget().Sub(before)

	p := res.Targets
	if p == 0 || p >= m*20 {
		t.Fatalf("distinct targets = %d, want a real per-peer grouping (m=%d, k=20)", p, m)
	}
	if res.Walks != 0 {
		t.Errorf("republish paid %d walks, want 0 (target sets remembered by the ledger)", res.Walks)
	}
	if res.StoreRPCs > p {
		t.Errorf("republish sent %d store RPCs for %d distinct targets, want <= P", res.StoreRPCs, p)
	}
	repub := spent.Category(transport.CatRepublish)
	if repub > int64(p) {
		t.Errorf("republish budget = %d RPCs for P=%d distinct targets, want <= P (was M x walk+store before batching)", repub, p)
	}
	if repub == 0 {
		t.Error("republish cycle issued no RPCs; the batch never went out")
	}
	if res.Provided < m-1 {
		t.Errorf("republish provided %d of %d cids on a clean network", res.Provided, m)
	}

	// The records actually landed: another node resolves each CID.
	for _, c := range cids {
		provs, _, err := routing.FindProviders(ctx, routing.NewDHT(tn.Nodes[1].DHT()), c)
		if err != nil || len(provs) == 0 {
			t.Fatalf("providers for %s after batched republish: %v %v", c, provs, err)
		}
	}
}

// TestRetrieveStreamsFailoverCandidates pins the streaming retrieve
// path: the first provider goes to Bitswap while later stream results
// become fail-over candidates, and the result reports the
// time-to-first-provider alongside the full lookup duration.
func TestRetrieveStreamsFailoverCandidates(t *testing.T) {
	tn := buildSmallNet(t, 40)
	ctx := context.Background()
	data := []byte("content with two providers")

	a, b := tn.Nodes[0], tn.Nodes[1]
	pub, err := a.AddAndPublish(ctx, data)
	if err != nil {
		t.Fatalf("publish a: %v", err)
	}
	if _, err := b.Add(data); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(ctx, pub.Cid); err != nil {
		t.Fatalf("publish b: %v", err)
	}

	getter := tn.AddVantage("US", 600)
	got, res, err := getter.Retrieve(ctx, pub.Cid)
	if err != nil || string(got) != string(data) {
		t.Fatalf("retrieve: %v", err)
	}
	if res.FirstProvider <= 0 {
		t.Error("time-to-first-provider not measured")
	}
	if res.LookupFull < res.ProviderWalk {
		t.Errorf("full lookup %v shorter than its blocked prefix %v", res.LookupFull, res.ProviderWalk)
	}
	// Both publishers stored on the same k-closest set, so the first
	// record-carrying response names both: one becomes the session
	// provider, the other a fail-over candidate.
	if res.StreamCandidates < 1 {
		t.Errorf("StreamCandidates = %d, want the second provider kept as fail-over", res.StreamCandidates)
	}
}

// TestParallelDiscoveryAskFailsBeforeStream is the deadlock regression
// for discoverParallel: when the Bitswap ask fails before the provider
// stream yields (an unconnected requester: the ask errors instantly,
// the walk takes a while), the stream-win path must not block on the
// already-drained ask channel.
func TestParallelDiscoveryAskFailsBeforeStream(t *testing.T) {
	tn := testnet.Build(testnet.Config{
		N: 40, Seed: 19, Scale: 0.0004,
		ParallelDiscovery: true,
		FracDead:          0.0001, FracSlow: 0.0001, FracWSBroken: 0.0001,
	})
	ctx := context.Background()
	pub, err := tn.Nodes[0].AddAndPublish(ctx, []byte("raced discovery content"))
	if err != nil {
		t.Fatal(err)
	}
	getter := tn.AddVantage("US", 910)

	type outcome struct {
		data []byte
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		data, _, err := getter.Retrieve(ctx, pub.Cid)
		ch <- outcome{data: data, err: err}
	}()
	select {
	case o := <-ch:
		if o.err != nil || string(o.data) != "raced discovery content" {
			t.Fatalf("parallel-discovery retrieve: %v", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("parallel-discovery retrieval deadlocked: stream won after the ask failed")
	}
}
