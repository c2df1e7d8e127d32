package sweep

import "testing"

// BenchmarkExpandJob times expand, which every sweep pass runs on each
// job before it reads or simulates a point: the curves, the grid cross
// product, what each series' policy serves and one cache key per item.
// "paper" is the six jobs of `sweep -all` at mempool, normalized once as
// a warm pass expands them; "fig3-grid" crosses Fig. 3 with
// queuecap=1,2,4 and colibriq=2,8, so every series asks each policy
// whether it reads the two parameters; "fig3-policies" crosses it with
// all five built-in policies, 15 of whose 30 pairs cannot run.
func BenchmarkExpandJob(b *testing.B) {
	normalized := func(jobs ...Job) []Job {
		for i, j := range jobs {
			n, err := j.Normalize()
			if err != nil {
				b.Fatal(err)
			}
			jobs[i] = n
		}
		return jobs
	}
	var paper []Job
	for _, k := range []Kind{Fig3, Fig4, Fig5, Fig6, TableI, TableII} {
		paper = append(paper, Job{Kind: k, Topo: "mempool"})
	}
	grid := Job{Kind: Fig3, Topo: "mempool",
		Grid: Grid{QueueCaps: []int{1, 2, 4}, ColibriQueues: []int{2, 8}}}
	policies := Job{Kind: Fig3, Topo: "mempool",
		Grid: Grid{Policies: []string{"plain", "lrsc", "lrsc-table", "lrscwait", "colibri"}}}
	for _, c := range []struct {
		name string
		jobs []Job
	}{
		{"paper", normalized(paper...)},
		{"fig3-grid", normalized(grid)},
		{"fig3-policies", normalized(policies)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, j := range c.jobs {
					if _, err := expand(j); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
