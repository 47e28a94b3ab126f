package allocif

import (
	"kmem/internal/arena"
	"kmem/internal/core"
	"kmem/internal/machine"
)

// NewKMA adapts the paper's allocator behind its standard (kmem_alloc)
// interface. This is the "newkma" trace in Figures 7 and 8.
type NewKMA struct {
	*core.Allocator
}

// Name implements Allocator.
func (NewKMA) Name() string { return "newkma" }

// CookieKMA adapts the paper's allocator behind the cookie interface:
// cookies for every size class are translated once at construction, as a
// kernel subsystem would do at compile/init time. This is the "cookie"
// trace in Figures 7 and 8. Only Alloc and Free differ from NewKMA;
// everything else the core allocator offers (DrainAll, AllocWait, Trim,
// and the cookie, shed, sizing, event and hardening hooks a typed cache
// calls) is the embedded allocator's own.
type CookieKMA struct {
	*core.Allocator
	cookies []core.Cookie // per class
}

// NewCookieKMA precomputes a cookie per size class.
func NewCookieKMA(a *core.Allocator) *CookieKMA {
	ck := &CookieKMA{Allocator: a}
	for i := 0; i < a.NumClasses(); i++ {
		c, err := a.GetCookie(uint64(a.ClassSize(i)))
		if err != nil {
			panic(err)
		}
		ck.cookies = append(ck.cookies, c)
	}
	return ck
}

// Name implements Allocator.
func (*CookieKMA) Name() string { return "cookie" }

// cookieFor finds the precomputed cookie whose class covers size.
func (k *CookieKMA) cookieFor(size uint64) (core.Cookie, bool) {
	for i := range k.cookies {
		if uint64(k.cookies[i].Size()) >= size {
			return k.cookies[i], true
		}
	}
	return core.Cookie{}, false
}

// Alloc implements Allocator via the cookie fast path; requests beyond
// the largest class fall back to the standard interface (as callers
// without a compile-time size must).
func (k *CookieKMA) Alloc(c *machine.CPU, size uint64) (arena.Addr, error) {
	if ck, ok := k.cookieFor(size); ok {
		return k.AllocCookie(c, ck)
	}
	return k.Allocator.Alloc(c, size)
}

// Free implements Allocator.
func (k *CookieKMA) Free(c *machine.CPU, addr arena.Addr, size uint64) {
	if ck, ok := k.cookieFor(size); ok {
		k.FreeCookie(c, addr, ck)
		return
	}
	k.Allocator.Free(c, addr, size)
}

var (
	_ Allocator = NewKMA{}
	_ Coalescer = NewKMA{}
	_ Waiter    = NewKMA{}
	_ Trimmer   = NewKMA{}
	_ Allocator = (*CookieKMA)(nil)
	_ Coalescer = (*CookieKMA)(nil)
	_ Waiter    = (*CookieKMA)(nil)
	_ Trimmer   = (*CookieKMA)(nil)
	_ Waiter    = RetryWait{}
)
