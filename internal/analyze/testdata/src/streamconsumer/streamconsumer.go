// Package streamconsumer exercises the stream-consumer registration
// rule: events are filtered by a consumer's Kinds mask before delivery,
// so a trace.Kind referenced in Consume but absent from the mask is
// dead handling and must be flagged.
package streamconsumer

import (
	"fixtures/internal/machine"
	"fixtures/internal/pmem"
	"fixtures/internal/trace"
)

// Good registers exactly the kinds it handles.
type Good struct{ n int }

func (g *Good) Kinds() uint64 { return trace.Mask(trace.KGood, trace.KNoEmit) }

func (g *Good) Consume(e trace.Event) {
	switch e.Kind {
	case trace.KGood, trace.KNoEmit:
		g.n++
	}
}

// Universal inspects every kind under the AllKinds mask.
type Universal struct{ n int }

func (u *Universal) Kinds() uint64 { return trace.AllKinds }

func (u *Universal) Consume(e trace.Event) {
	if e.Kind == trace.KNoName {
		u.n++
	}
}

// Helper routes its mask through a package-level function, like the
// real two-pass WPQ consumers do.
type Helper struct{ n int }

func helperMask() uint64 { return trace.Mask(trace.KGood) }

func (h *Helper) Kinds() uint64 { return helperMask() }

func (h *Helper) Consume(e trace.Event) {
	if e.Kind == trace.KGood {
		h.n++
	}
}

// Leaky handles a kind its mask does not register: KNoName events are
// filtered out before delivery, so the branch is dead.
type Leaky struct{ n int }

func (l *Leaky) Kinds() uint64 { return trace.Mask(trace.KGood) }

func (l *Leaky) Consume(e trace.Event) {
	switch e.Kind {
	case trace.KGood:
		l.n++
	case trace.KNoName: // want "does not register"
		l.n += 2
	}
}

// NotAConsumer has a Consume method but no Kinds mask — outside the
// contract, so the rule stays silent even though it references kinds.
type NotAConsumer struct{ n int }

func (n *NotAConsumer) Consume(e trace.Event) {
	if e.Kind == trace.KNoPerfetto {
		n.n++
	}
}

// Mutator reaches into simulation state from an observer entry point:
// both the direct field write and the mutating-method call are obsonly
// errors (the method's write is reported at its body, with the call
// chain back to Consume).
type Mutator struct{ core *machine.Core }

func (m *Mutator) Kinds() uint64 { return trace.Mask(trace.KGood) }

func (m *Mutator) Consume(e trace.Event) {
	m.core.Count += e.Cycle // want "writes machine.Core.Count"
	m.core.Bump()
}

// Scribbler writes a PM image page from an observer entry point. The
// image is a page table, so the stores the pass must resolve sit in the
// image's write path — the in-page copy and byte store, and the
// page-table and ownership stores of the first-write helper — and are
// reported there, with the call chain back to Consume. Reading the
// image is fine.
type Scribbler struct{ img *pmem.Image }

func (s *Scribbler) Kinds() uint64 { return trace.Mask(trace.KGood) }

func (s *Scribbler) Consume(e trace.Event) {
	if s.img.ReadByte(e.Cycle) == 0 {
		s.img.Write(e.Cycle, []byte{1})
		s.img.SetByte(e.Cycle+1, 2)
	}
}

// hostBuffered and hostDropped mirror the double-buffered binlog
// sink's host-side accounting: package-level state touched from a
// consumer. The buffered counter is intentional (waived); the drop
// counter below is the unwaived leak the pass must catch.
var hostBuffered, hostDropped uint64

// Sink is the waived-sink fixture.
type Sink struct{}

func (s *Sink) Kinds() uint64 { return trace.AllKinds }

func (s *Sink) Consume(e trace.Event) {
	hostDropped++  // want "package-level state streamconsumer.hostDropped"
	hostBuffered++ //slpmt:obsonly-ok: double-buffered host-side spill accounting; simulation code never reads it back
}
