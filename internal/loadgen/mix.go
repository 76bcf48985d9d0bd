package loadgen

import "fmt"

// StandardMix is the default production-shaped request mix, every query a
// POST /v1/query: a hot identical scan select (exercises the result cache
// and, under concurrency, singleflight collapse), cache-busting scan selects
// (every request is a fresh archive walk), a pushdown-pruned count, a
// full-scan decade quantile, a hot per-port table, and the stats page.
// Weights roughly follow a dashboard-plus-analysts profile: mostly cheap
// repeated reads, a steady trickle of expensive novel queries.
func StandardMix() []Request {
	return []Request{
		{
			Name: "select-hot",
			Path: "/v1/query",
			Body: func(uint64) []byte {
				return []byte(`{"where":{"and":[{"field":"year","eq":2020},{"field":"port","in":[443]}]},"limit":50}`)
			},
			Weight: 4,
		},
		{
			Name: "select-cold",
			Path: "/v1/query",
			Body: func(i uint64) []byte {
				// Vary year and minimum rate so consecutive requests never
				// share a canonical key: each one misses the cache and walks
				// blocks.
				return []byte(fmt.Sprintf(
					`{"where":{"and":[{"field":"year","eq":%d},{"field":"rate_pps","min":%d}]},"limit":100}`,
					2015+i%10, 100+i%89))
			},
			Weight: 2,
		},
		{
			Name: "query-pruned",
			Path: "/v1/query",
			Body: func(i uint64) []byte {
				return []byte(fmt.Sprintf(
					`{"where":{"and":[{"field":"year","eq":%d},{"field":"port","in":[443]}]},"aggs":[{"op":"count"}]}`,
					2015+i%10))
			},
			Weight: 2,
		},
		{
			Name: "query-quantile",
			Path: "/v1/query",
			Body: func(i uint64) []byte {
				// No filter: a full-decade scan the zone maps cannot prune.
				return []byte(`{"aggs":[{"op":"quantile","field":"rate_pps","qs":[0.5,0.9,0.99]}]}`)
			},
			Weight: 1,
		},
		{
			Name: "ports-table",
			Path: "/v1/query",
			Body: func(uint64) []byte {
				return []byte(`{"where":{"field":"year","eq":2021},"group_by":["port"],"aggs":[{"op":"count"},{"op":"sum","field":"packets"}],"limit":10}`)
			},
			Weight: 2,
		},
		{
			Name:   "stats",
			Path:   "/v1/stats",
			Weight: 1,
		},
	}
}

// HotMix is a single identical expensive query repeated by every client —
// the worst case for naive servers (a thundering herd on one cache key) and
// the best case for singleflight, which should collapse all concurrent
// copies into one archive walk.
func HotMix() []Request {
	return []Request{{
		Name: "query-hot",
		Path: "/v1/query",
		Body: func(uint64) []byte {
			return []byte(`{"group_by":["tool"],"aggs":[{"op":"count"},{"op":"quantile","field":"rate_pps","qs":[0.5,0.99]}]}`)
		},
	}}
}
