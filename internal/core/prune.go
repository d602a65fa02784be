package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Checkpoint-store hygiene: a periodically checkpointed long job writes a
// new generation every interval; old generations are useless once newer
// ones exist. Every generation — full image or delta epoch — is
// self-contained, so an old one can go without looking at the rest.

// Generations lists the checkpoint generations stored for a VC, sorted.
func (c *Coordinator) Generations(vcName string) []int {
	prefix := fmt.Sprintf("lsc/%s/", vcName)
	seen := map[int]bool{}
	for _, key := range c.mgr.store.Keys(prefix) {
		rest := strings.TrimPrefix(key, prefix)
		genStr, _, ok := strings.Cut(rest, "/")
		if !ok {
			continue
		}
		gen, err := strconv.Atoi(genStr)
		if err != nil {
			continue
		}
		seen[gen] = true
	}
	gens := make([]int, 0, len(seen))
	for g := range seen {
		gens = append(gens, g)
	}
	sort.Ints(gens)
	return gens
}

// PruneGenerations deletes stored generations beyond the newest `keep`
// and returns the number of image objects deleted. Deletion is a
// metadata operation on the store (no transfer time).
func (c *Coordinator) PruneGenerations(vcName string, keep int) int {
	if keep < 1 {
		keep = 1
	}
	gens := c.Generations(vcName)
	if len(gens) <= keep {
		return 0
	}

	prefix := fmt.Sprintf("lsc/%s/", vcName)
	domainSet := map[string]bool{}
	for _, key := range c.mgr.store.Keys(prefix) {
		rest := strings.TrimPrefix(key, prefix)
		if _, domain, ok := strings.Cut(rest, "/"); ok {
			domainSet[domain] = true
		}
	}
	// Sorted domain order: pruning deletes store objects, and those
	// effects must replay identically run to run (dvclint: mapiter).
	domains := make([]string, 0, len(domainSet))
	for domain := range domainSet {
		domains = append(domains, domain)
	}
	sort.Strings(domains)

	deleted := 0
	for _, g := range gens[:len(gens)-keep] {
		for _, domain := range domains {
			key := imageKey(vcName, g, domain)
			if !c.mgr.store.Has(key) {
				continue
			}
			c.mgr.store.Delete(key)
			deleted++
		}
	}
	if deleted > 0 {
		// Deleting delta epochs only drops chunk references; reclaim the
		// now-unreferenced chunks (no-op for full images).
		c.mgr.store.GC()
	}
	return deleted
}
