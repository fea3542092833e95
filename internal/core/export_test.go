package core

// LatentCapacity returns how deep c's per-CPU latent rings may grow now.
func LatentCapacity(c *Cache) int { return c.latentLimit() }

// LatentLen returns the number of deferred objects in cpu's latent ring.
func LatentLen(c *Cache, cpu int) int {
	cl := c.percpu[cpu]
	cl.objs.LockRemote()
	defer cl.objs.Unlock()
	return cl.latent.len()
}

// DeliverPressure runs a's pressure callback as pagealloc would, with
// under as the callback's argument.
func DeliverPressure(a *Allocator, under bool) { a.onPressure(under) }
