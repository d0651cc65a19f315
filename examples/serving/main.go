// Serving walkthrough: run the oipa-serve query service in-process and
// exercise its whole surface — solve (fresh + cached), estimate, forward
// simulation, a deadline-bounded solve, and the cache metrics that make
// the prepared-artifact registry observable.
//
// The same flow works over the network against `cmd/oipa-serve`; this
// example embeds the server so it runs self-contained:
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"

	"oipa/internal/gen"
	"oipa/internal/logistic"
	"oipa/internal/serve"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

func call(client *http.Client, method, url string, body interface{}, out interface{}) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, raw)
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

func main() {
	// 1. A lastfm-like network and a server over it: the graph is loaded
	// (here: generated) exactly once; every query shares it.
	dataset, err := gen.LastfmSim(1.0, 42)
	if err != nil {
		log.Fatal(err)
	}
	pool, err := gen.PromoterPool(dataset.G, 0.10, 43)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Graph:        dataset.G,
		Pool:         pool,
		Model:        logistic.Model{Alpha: 2, Beta: 1},
		DefaultTheta: 20_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	fmt.Printf("serving %d users / %d edges at %s\n\n", dataset.G.N(), dataset.G.M(), ts.URL)

	// 2. A campaign, solved twice: the first request samples and indexes
	// (the expensive Prepare), the second hits the prepared artifact.
	campaign := topic.UniformCampaign("launch", 3, dataset.Z(), xrand.New(7))
	solveReq := serve.SolveRequest{Campaign: campaign, Method: "babp", K: 10}
	var first, second serve.SolveResponse
	if err := call(client, "POST", ts.URL+"/v1/solve", solveReq, &first); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solve #1: utility %.2f (sampled %.0f ms, solved %.0f ms, cache_hit=%v)\n",
		first.Utility, first.SampleMS, first.SolveMS, first.CacheHit)
	if err := call(client, "POST", ts.URL+"/v1/solve", solveReq, &second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solve #2: utility %.2f (solved %.0f ms, cache_hit=%v)\n\n",
		second.Utility, second.SolveMS, second.CacheHit)

	// 3. Validate the returned plan two independent ways: the MRR
	// estimate over the cached samples and forward Monte-Carlo.
	var est serve.EstimateResponse
	if err := call(client, "POST", ts.URL+"/v1/estimate",
		serve.EstimateRequest{Campaign: campaign, Plan: first.Plan}, &est); err != nil {
		log.Fatal(err)
	}
	var sim serve.SimulateResponse
	if err := call(client, "POST", ts.URL+"/v1/simulate",
		serve.SimulateRequest{Campaign: campaign, Plan: first.Plan, Runs: 5000}, &sim); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimate: %.2f (MRR, cached instance)  simulate: %.2f (%d MC runs)\n\n",
		est.Utility, sim.Utility, sim.Runs)

	// 4. A heavier solve under a deadline: a steep adoption model (alpha
	// 6, beta 2) makes bab expand many nodes, and when timeout_ms expires
	// mid-search the server answers with its incumbent marked degraded;
	// upper still certifies OPT ≤ upper/(1−1/e).
	bigReq := serve.SolveRequest{Campaign: campaign, Method: "bab", K: 14, Alpha: 6, Beta: 2, TimeoutMS: 50}
	var big serve.SolveResponse
	if err := call(client, "POST", ts.URL+"/v1/solve", bigReq, &big); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bab k=14 (alpha 6, beta 2) within 50 ms: utility %.2f, upper %.2f, degraded=%v (%d nodes)\n\n",
		big.Utility, big.Upper, big.Degraded, big.Stats.Nodes)

	// 5. The registry's bookkeeping: one Prepare despite four queries
	// over the campaign, layouts shared across them all.
	snap := srv.Metrics()
	fmt.Printf("metrics: prepares=%d instance_hits=%d layout_hits=%d layouts=%d inflight=%d\n",
		snap.Registry.Prepares, snap.Registry.InstanceHits,
		snap.Registry.LayoutHits, snap.Registry.Layouts, snap.Solves.Inflight)
}
