package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"altrun/internal/checkpoint"
	"altrun/internal/core"
	"altrun/internal/ids"
	"altrun/internal/obs"
	"altrun/internal/serve"
	"altrun/internal/trace"
	"altrun/internal/transport"
)

// clusterNode is one in-process daemon: transport + voter + pool + HTTP.
type clusterNode struct {
	state *clusterState
	pool  *serve.Pool
	http  *httptest.Server
	rec   *obs.Recorder
}

// testCluster brings up n daemons meshed over loopback TCP on ephemeral
// ports — the in-process equivalent of `altserved -node i -peers ...`.
func testCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	tcps := make([]*transport.TCP, n)
	members := make([]ids.NodeID, n)
	for i := range tcps {
		nc := &trace.NetCounters{}
		tcp, err := transport.NewTCP(transport.TCPOptions{Node: ids.NodeID(i + 1), Counters: nc})
		if err != nil {
			t.Fatal(err)
		}
		tcps[i] = tcp
		members[i] = tcp.ID()
	}
	for i, a := range tcps {
		for j, b := range tcps {
			if i != j {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}
	nodes := make([]*clusterNode, n)
	for i, tcp := range tcps {
		cs := clusterFromTransport(tcp, members, tcp.Counters())
		rec := obs.NewRecorder(obs.Config{SampleRate: 1})
		pool, err := serve.NewPool(serve.Config{
			Workers:         2,
			SpecTokens:      4,
			QueueDepth:      8,
			DefaultDeadline: 30 * time.Second,
			Runtime:         core.New(core.Config{}),
			NewClaim:        cs.newClaim,
			Recorder:        rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.start(pool)
		nodes[i] = &clusterNode{
			state: cs,
			pool:  pool,
			http:  httptest.NewServer(newHandler(pool, cs, rec)),
			rec:   rec,
		}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.http.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := nd.pool.Close(ctx); err != nil {
				t.Errorf("pool close: %v", err)
			}
			cancel()
			nd.state.close()
		}
	})
	return nodes
}

// startDaemon brings up one daemon through the production constructor
// (the same path `altserved -peers ...` / `altserved -join ...` takes),
// rather than testCluster's pre-meshed transport shortcut.
func startDaemon(t *testing.T, opts clusterOptions) *clusterNode {
	t.Helper()
	cs, err := newClusterState(opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.Config{SampleRate: 1})
	pool, err := serve.NewPool(serve.Config{
		Workers:         2,
		SpecTokens:      4,
		QueueDepth:      8,
		DefaultDeadline: 30 * time.Second,
		Runtime:         core.New(core.Config{}),
		NewClaim:        cs.newClaim,
		Recorder:        rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs.start(pool)
	nd := &clusterNode{
		state: cs,
		pool:  pool,
		http:  httptest.NewServer(newHandler(pool, cs, rec)),
		rec:   rec,
	}
	t.Cleanup(func() {
		nd.http.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := nd.pool.Close(ctx); err != nil {
			t.Errorf("pool close: %v", err)
		}
		cancel()
		nd.state.close()
	})
	return nd
}

func getMetrics(t *testing.T, url string) metricsView {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsView
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestParsePeersRejectsMalformed: a -peers/-join spec that names a node
// twice (which would silently shrink the group and its quorum) or gives
// an address no dialer can use is refused, and the error names the
// offending entry; well-formed specs still parse.
func TestParsePeersRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string // substring of the error; "" means the spec is valid
	}{
		{"1=a:1,2=b:2", ""},
		{" 1 = 127.0.0.1:17101 , 2=[::1]:17102,", ""},
		{"1=a:1,1=b:2", `peer 2 "1=b:2": node 1 named twice`},
		{"1=", `peer 1 "1="`},
		{"2=,3=x:1", `peer 1 "2="`},
		{"2=x:1,3=", `peer 2 "3="`},
		{"1=localhost", `peer 1 "1=localhost"`},
		{"1=localhost:", `peer 1 "1=localhost:"`},
		{"1=a:1,x=b:2", `peer 2 "x=b:2": bad node id`},
		{"1", `peer 1 "1"`},
		{",", "empty peer spec"},
	} {
		spec, err := parsePeers(tc.spec)
		if tc.want == "" {
			if err != nil {
				t.Errorf("parsePeers(%q) = %v, want it accepted", tc.spec, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("parsePeers(%q) = %v, want an error containing %q", tc.spec, spec, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parsePeers(%q) error %q, want it to contain %q", tc.spec, err, tc.want)
		}
	}
}

// TestClusterDynamicJoin: a singleton seed started with -peers and two
// joiners started with -join converge to one 3-member view with quorum
// 2, and a job submitted to the last joiner commits through the
// dynamically-formed group. This is the production newClusterState path
// end to end: real TCP listeners on ephemeral ports, addresses learned
// through the gossip, no pre-meshing.
func TestClusterDynamicJoin(t *testing.T) {
	seed := startDaemon(t, clusterOptions{
		node:           1,
		peers:          peerSpec{1: "127.0.0.1:0"},
		gossipInterval: 25 * time.Millisecond,
	})
	nodes := []*clusterNode{seed}
	for _, id := range []ids.NodeID{2, 3} {
		nodes = append(nodes, startDaemon(t, clusterOptions{
			node:           id,
			join:           peerSpec{1: seed.state.tcp.Addr()},
			listen:         "127.0.0.1:0",
			gossipInterval: 25 * time.Millisecond,
		}))
	}

	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range nodes {
		for {
			m := getMetrics(t, nd.http.URL)
			if c := m.Cluster; c != nil && c.MembersAlive == 3 && c.Quorum == 2 && len(c.Members) == 3 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never converged to the 3-member view: %+v",
					nd.state.node, getMetrics(t, nd.http.URL).Cluster)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The joiner commits through the grown quorum, not its group-of-one
	// bootstrap view.
	input := make([]int, 200)
	for i := range input {
		input[i] = len(input) - i
	}
	resp, v := postJSON(t, nodes[2].http.URL+"/jobs?wait=1", submitRequest{
		Kind:  "sort",
		Input: input,
	})
	if resp.StatusCode != http.StatusOK || v.Status != "done" {
		t.Fatalf("joiner job: status=%d %q (error %q)", resp.StatusCode, v.Status, v.Error)
	}
	m := getMetrics(t, nodes[2].http.URL)
	if m.Cluster.ConsensusCommits != 1 {
		t.Fatalf("consensus_commits = %d, want 1", m.Cluster.ConsensusCommits)
	}
	if m.Cluster.Epoch < 2 {
		t.Fatalf("epoch = %d after two joins, want ≥ 2", m.Cluster.Epoch)
	}

	// The operator debug endpoint reflects the converged view.
	hr, err := http.Get(nodes[0].http.URL + "/debug/members")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var dbg struct {
		Epoch     int64 `json:"epoch"`
		RingNodes int   `json:"ring_nodes"`
		Members   []struct {
			Node ids.NodeID `json:"node"`
		} `json:"members"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	seen := map[ids.NodeID]bool{}
	for _, mm := range dbg.Members {
		seen[mm.Node] = true
	}
	if hr.StatusCode != http.StatusOK || dbg.RingNodes != 3 || len(seen) != 3 {
		t.Fatalf("/debug/members: status=%d %+v", hr.StatusCode, dbg)
	}
}

// TestClusterConsensusCommit: a job submitted to one node of a 3-node
// group commits through majority consensus — with one voter killed mid-
// block, the remaining quorum of 2 still decides, and exactly one
// alternative commits.
func TestClusterConsensusCommit(t *testing.T) {
	nodes := testCluster(t, 3)

	// Kill node 3's voter as the job runs: quorum is 2 of 3.
	go func() {
		time.Sleep(10 * time.Millisecond)
		nodes[2].state.voter.Stop()
	}()

	input := make([]int, 500)
	for i := range input {
		input[i] = len(input) - i
	}
	resp, v := postJSON(t, nodes[0].http.URL+"/jobs?wait=1", submitRequest{
		Kind:         "sort",
		Input:        input,
		PerCompareNS: int64(20 * time.Microsecond),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %+v", resp.StatusCode, v)
	}
	if v.Status != "done" {
		t.Fatalf("job status = %q (error %q), want done", v.Status, v.Error)
	}

	m := getMetrics(t, nodes[0].http.URL)
	if m.Cluster == nil {
		t.Fatal("metrics missing cluster section")
	}
	if m.Cluster.ConsensusCommits != 1 {
		t.Fatalf("consensus_commits = %d, want exactly 1 (at-most-one per block)", m.Cluster.ConsensusCommits)
	}
	if m.Cluster.Ballots < 1 {
		t.Fatalf("ballots = %d, want ≥ 1", m.Cluster.Ballots)
	}
	if m.Cluster.Quorum != 2 || len(m.Cluster.Members) != 3 {
		t.Fatalf("cluster view = %+v", m.Cluster)
	}
	if m.Cluster.Net.MsgsSent == 0 {
		t.Fatal("consensus over TCP must account sent messages")
	}
}

// TestClusterRForkForwarding: a busy node forwards an ?rfork=1 job to
// the least-loaded peer as a shipped checkpoint image; the peer rebuilds
// and runs it under its own consensus key.
func TestClusterRForkForwarding(t *testing.T) {
	nodes := testCluster(t, 3)

	// Occupy node 1 with a slow job so a peer is strictly less loaded.
	slow := make([]int, 3000)
	for i := range slow {
		slow[i] = len(slow) - i
	}
	if resp, _ := postJSON(t, nodes[0].http.URL+"/jobs", submitRequest{
		Kind:         "sort",
		Input:        slow,
		PerCompareNS: int64(30 * time.Microsecond),
	}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow job status = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	forwarded := false
	for !forwarded {
		if time.Now().After(deadline) {
			t.Fatal("rfork submission never forwarded")
		}
		resp, _ := postJSON(t, nodes[0].http.URL+"/jobs?rfork=1", submitRequest{
			Kind:  "sort",
			Input: []int{9, 7, 8},
		})
		if resp.StatusCode == http.StatusAccepted {
			forwarded = nodes[0].state.rforksOut.Load() > 0
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Some peer received the image, rebuilt the job, and completed it —
	// and its flight recorder carries the origin node's stitch ID, so
	// the two nodes' timelines join on one key.
	for time.Now().Before(deadline) {
		for _, nd := range nodes[1:] {
			// A job is counted completed before its sampled timeline is
			// recorded, so wait for the timeline too.
			recent := nd.rec.Recent()
			if nd.state.rforksIn.Load() == 0 || nd.pool.Stats().JobsCompleted == 0 || len(recent) == 0 {
				continue
			}
			for _, tl := range recent {
				if strings.HasPrefix(tl.TraceID, "n1-r") {
					return
				}
			}
			t.Fatalf("forwarded job ran without the origin stitch ID: %+v", recent)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no peer completed the forwarded job")
}

// TestRForkPortsBoundWhenStartReturns: a peer may ship an rfork the
// moment start returns. Its sender sees Send succeed and never falls
// back to running the job locally, so a frame that reached an unbound
// port would lose the job: both rfork ports must be bound by then.
func TestRForkPortsBoundWhenStartReturns(t *testing.T) {
	tcp, err := transport.NewTCP(transport.TCPOptions{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := clusterFromTransport(tcp, []ids.NodeID{1}, tcp.Counters())
	pool, err := serve.NewPool(serve.Config{
		Workers: 1, SpecTokens: 2, QueueDepth: 4,
		Runtime:  core.New(core.Config{}),
		NewClaim: cs.newClaim,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := pool.Close(ctx); err != nil {
			t.Errorf("pool close: %v", err)
		}
		cs.close()
	})
	cs.start(pool)
	for _, port := range []string{checkpoint.RForkPort, checkpoint.RForkCtlPort} {
		if !tcp.Send(transport.Addr{Node: 1, Port: port}, []byte("probe")) {
			t.Errorf("send to own %q port right after start was dropped", port)
		}
	}
}
