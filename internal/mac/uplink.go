package mac

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// UplinkConfig sets the contention parameters of the shared request channel.
type UplinkConfig struct {
	SlotDur       des.Duration // one request fits exactly one slot
	InitialWindow int          // first attempt lands uniformly in this many slots
	MaxBackoffExp int          // backoff window caps at InitialWindow·2^MaxBackoffExp slots
	LossProb      float64      // per-attempt channel loss even without collision
}

// DefaultUplinkConfig models a low-rate random-access channel: 4 ms slots
// (a ~60-byte request at the robust uplink rate), an 8-slot initial window,
// binary exponential backoff capped at 8·2^7 = 1024 slots, 2% channel loss.
// The initial randomization matters: invalidation reports synchronize every
// client's cache-miss requests, and an unrandomized first slot collapses the
// channel at moderate populations.
func DefaultUplinkConfig() UplinkConfig {
	return UplinkConfig{SlotDur: 4 * des.Millisecond, InitialWindow: 8, MaxBackoffExp: 7, LossProb: 0.02}
}

// UplinkDeliver is invoked when a request survives contention and decoding.
type UplinkDeliver func(src int, meta any, now des.Time)

// UplinkStats aggregates contention measurements.
type UplinkStats struct {
	Sent       metrics.Counter // Send calls
	Attempts   metrics.Counter // slot transmissions, including retries
	Collisions metrics.Counter // slots with more than one transmission
	Losses     metrics.Counter // solo transmissions lost to channel noise
	Delivered  metrics.Counter
}

// blockLen is how many attempts one slot-queue block holds. At paper-default
// load most slots carry one attempt; in a collapsed city cell a slot carries
// 20-40 and spans two or three blocks.
const blockLen = 16

// attempt is one pending request, stored by value in its slot's block.
type attempt struct {
	meta any
	src  int32
	exp  int32 // backoff exponent of the last retry, capped at MaxBackoffExp
}

// slotBlock is one link of a slot's FIFO: blockLen attempts inline, in
// arrival order. Blocks recycle through the uplink's free list, so
// contention in steady state allocates nothing.
type slotBlock struct {
	next *slotBlock // slot queue when armed, free list when idle
	recs [blockLen]attempt
}

// slotQueue is the FIFO of attempts contending in one slot: a chain of
// blocks, all full but the tail. Block fill is derived from n, so appending
// stores into the tail block without first loading from it.
type slotQueue struct {
	head, tail *slotBlock
	n          int
}

// Uplink is a slotted-ALOHA random access channel with binary exponential
// backoff. Requests are retried until they get through: the invalidation
// protocols above it rely on at-least-once delivery, and the latency cost of
// a congested uplink is precisely one of the measured effects.
type Uplink struct {
	cfg     UplinkConfig
	sch     *des.Scheduler
	deliver UplinkDeliver
	src     *rng.Source

	// ring holds the armed slot queues, indexed slot & ringMask. Backoff
	// bounds how far ahead an attempt can land (1 + InitialWindow·2^MaxBackoffExp
	// slots), and resolution clears slots as time passes, so at any instant
	// the armed slots span less than the ring size and never alias — giving
	// O(1) hash-free access on the contention hot path.
	ring     []slotQueue
	ringMask int64

	// resolveFn is the one pre-bound slot-resolution callback: resolution
	// events fire exactly at slot end, so the slot index is recovered from
	// the clock instead of captured in a per-arming closure.
	resolveFn func()

	free *slotBlock // recycled blocks, linked through next

	stats     UplinkStats
	onAttempt func(srcs []int32)
	srcs      []int32 // onAttempt's argument, reused across slots
}

// NewUplink builds the uplink. deliver must be non-nil.
func NewUplink(sch *des.Scheduler, cfg UplinkConfig, src *rng.Source, deliver UplinkDeliver) *Uplink {
	if deliver == nil {
		panic("mac: nil uplink deliver callback")
	}
	if cfg.SlotDur <= 0 || cfg.InitialWindow < 1 || cfg.MaxBackoffExp < 0 ||
		cfg.LossProb < 0 || cfg.LossProb >= 1 {
		panic(fmt.Sprintf("mac: invalid uplink config %+v", cfg))
	}
	u := &Uplink{
		cfg:     cfg,
		sch:     sch,
		deliver: deliver,
		src:     src,
	}
	// Furthest reachable slot from an arming at slot s: s+1+window-1 with
	// window capped at InitialWindow·2^MaxBackoffExp; size the ring to the
	// next power of two above that span so live slots never collide.
	span := int64(cfg.InitialWindow)<<uint(cfg.MaxBackoffExp) + 2
	size := int64(1)
	for size < span {
		size <<= 1
	}
	u.ring = make([]slotQueue, size)
	u.ringMask = size - 1
	u.resolveFn = func() { u.resolve(int64(u.sch.Now())/int64(u.cfg.SlotDur) - 1) }
	return u
}

// Stats exposes the accumulated measurements.
func (u *Uplink) Stats() *UplinkStats { return &u.stats }

// SetAttemptHook installs fn to observe every slot transmission (including
// retries): one call per resolved slot, passing the slot's source clients in
// FIFO order. The slice is reused after fn returns. Energy accounting uses it.
func (u *Uplink) SetAttemptHook(fn func(srcs []int32)) { u.onAttempt = fn }

// Send submits a request from client src. The first transmission lands
// uniformly within the initial window starting at the next slot; collisions
// are retried with binary exponential backoff until delivered.
func (u *Uplink) Send(src int, meta any) {
	if int(int32(src)) != src {
		panic(fmt.Sprintf("mac: uplink source %d out of int32 range", src))
	}
	u.stats.Sent.Inc()
	jitter := int64(u.src.Uint64n(uint64(u.cfg.InitialWindow)))
	u.push(u.nextSlot()+jitter, attempt{meta: meta, src: int32(src)})
}

// acquire pops a recycled block or allocates a fresh one.
func (u *Uplink) acquire() *slotBlock {
	if b := u.free; b != nil {
		u.free = b.next
		b.next = nil
		return b
	}
	return new(slotBlock)
}

// release returns a resolved block holding n attempts to the free list,
// dropping their meta references.
func (u *Uplink) release(b *slotBlock, n int) {
	for i := range n {
		b.recs[i].meta = nil
	}
	b.next = u.free
	u.free = b
}

// nextSlot reports the first slot index whose start is strictly after now.
func (u *Uplink) nextSlot() int64 {
	return int64(u.sch.Now())/int64(u.cfg.SlotDur) + 1
}

// push appends a to slot's FIFO.
func (u *Uplink) push(slot int64, a attempt) {
	q := &u.ring[slot&u.ringMask]
	i := q.n % blockLen
	if i == 0 {
		u.grow(q, slot)
	}
	q.tail.recs[i] = a
	q.n++
}

// grow links a fresh tail block into q, arming the slot's resolution event
// when q was empty.
func (u *Uplink) grow(q *slotQueue, slot int64) {
	b := u.acquire()
	if q.n == 0 {
		q.head = b
		u.sch.At(des.Time((slot+1)*int64(u.cfg.SlotDur)), "mac.ulslot", u.resolveFn)
	} else {
		q.tail.next = b
	}
	q.tail = b
}

func (u *Uplink) resolve(slot int64) {
	q := u.ring[slot&u.ringMask]
	u.ring[slot&u.ringMask] = slotQueue{}
	if q.n == 0 {
		return
	}
	now := u.sch.Now()
	u.stats.Attempts.Add(uint64(q.n))
	if u.onAttempt != nil {
		srcs := u.srcs[:0]
		left := q.n
		for b := q.head; b != nil; b = b.next {
			for _, a := range b.recs[:min(left, blockLen)] {
				srcs = append(srcs, a.src)
			}
			left -= blockLen
		}
		u.srcs = srcs
		u.onAttempt(srcs)
	}
	switch {
	case q.n == 1 && !u.src.Bool(u.cfg.LossProb):
		a := q.head.recs[0]
		u.release(q.head, 1) // deliver may Send, reusing the block
		u.stats.Delivered.Inc()
		u.deliver(int(a.src), a.meta, now)
		return
	case q.n == 1:
		u.stats.Losses.Inc()
	default:
		u.stats.Collisions.Inc()
	}
	maxExp := int32(u.cfg.MaxBackoffExp)
	left := q.n
	for b := q.head; b != nil; {
		n := min(left, blockLen)
		for _, a := range b.recs[:n] {
			a.exp = min(a.exp+1, maxExp)
			window := uint64(u.cfg.InitialWindow) << uint(a.exp)
			u.push(slot+1+int64(u.src.Uint64n(window)), a)
		}
		left -= n
		next := b.next
		u.release(b, n)
		b = next
	}
}
