package main

import (
	"bufio"
	"context"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// scrape reads every backend's Prometheus exposition and sums the samples
// of the named series ("name" or `name{label="value"}`) across backends.
func scrape(ctx context.Context, st *stack, series ...string) map[string]float64 {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	sums := map[string]float64{}
	for _, b := range st.backends {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.srv.url+"/metrics", nil)
		if err != nil {
			continue
		}
		resp, err := hc.Do(req)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			for _, s := range series {
				if rest, ok := strings.CutPrefix(line, s+" "); ok {
					if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
						sums[s] += v
					}
				}
			}
		}
		resp.Body.Close()
	}
	return sums
}

// previewCacheHits is the program-reported count of preview tiers served
// from the result cache, summed over backends.
func previewCacheHits(ctx context.Context, st *stack) float64 {
	const s = `ifdk_previews_total{source="cache"}`
	return scrape(ctx, st, s)[s]
}

// batchStats is the cross-job filter batcher's program-reported activity.
type batchStats struct {
	sweeps, batchSum, batchCount float64
}

func scrapeBatch(ctx context.Context, st *stack) batchStats {
	m := scrape(ctx, st, "ifdk_filter_sweeps_total", "ifdk_filter_batch_size_sum", "ifdk_filter_batch_size_count")
	return batchStats{m["ifdk_filter_sweeps_total"], m["ifdk_filter_batch_size_sum"], m["ifdk_filter_batch_size_count"]}
}

// routerProxyCost times GET /v1/jobs/{id} through the router and straight
// from the owning backend, alternating, and returns routed − direct for
// each job.
func routerProxyCost(ctx context.Context, lc *loadClient, direct []*loadClient, recs []*jobRec) []float64 {
	var out []float64
	for _, rec := range recs {
		if rec.id == "" {
			continue
		}
		var routed, straight []float64
		for k := 0; k < 5; k++ {
			t := time.Now()
			if _, err := lc.Get(ctx, rec.id); err != nil {
				break
			}
			routed = append(routed, time.Since(t).Seconds())
			t = time.Now()
			if _, err := direct[ownerOf(rec.id)].Get(ctx, rec.id); err != nil {
				break
			}
			straight = append(straight, time.Since(t).Seconds())
		}
		if len(routed) > 0 && len(straight) > 0 {
			out = append(out, median(routed)-median(straight))
		}
	}
	return out
}
