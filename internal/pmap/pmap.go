// Package pmap implements the portmapper protocol (program 100000,
// version 2, RFC 1057 appendix A): the registry that lets RPC clients
// discover which port a (program, version, protocol) triple listens on.
// It provides both the server-side dispatch (registered onto an
// internal/server.Server) and client-side helpers (Set, Unset, GetPort,
// Dump).
package pmap

import (
	"sync"

	"specrpc/internal/client"
	"specrpc/internal/server"
	"specrpc/internal/wire"
)

// Portmapper protocol identity.
const (
	Prog = uint32(100000)
	Vers = uint32(2)
)

// Portmapper procedures.
const (
	ProcNull    = uint32(0)
	ProcSet     = uint32(1)
	ProcUnset   = uint32(2)
	ProcGetPort = uint32(3)
	ProcDump    = uint32(4)
)

// Transport protocol numbers used in mappings.
const (
	IPProtoTCP = uint32(6)
	IPProtoUDP = uint32(17)
)

// Mapping is one registry entry (struct mapping).
type Mapping struct {
	Prog uint32
	Vers uint32
	Prot uint32
	Port uint32
}

// mapList is a node of DUMP's result, RFC 1833's pmaplist (struct
// pmaplist { mapping map; pmaplist *next; }).
type mapList struct {
	Map  Mapping
	Next *mapList
}

// Compiled wire plans for every procedure's bodies: the four mapping
// fields fuse into a single 4-unit run, the scalar replies compile to
// one instruction each, void is the empty program, and DUMP's list is a
// flag and then one chain step, a loop over its links.
var (
	mappingType = wire.StructT("mapping",
		wire.F("prog", wire.Uint32T()),
		wire.F("vers", wire.Uint32T()),
		wire.F("prot", wire.Uint32T()),
		wire.F("port", wire.Uint32T()),
	)
	mappingPlan = wire.MustPlan[Mapping](mappingType, wire.Specialized)
	boolPlan    = wire.MustPlan[bool](wire.BoolT(), wire.Specialized)
	portPlan    = wire.MustPlan[uint32](wire.Uint32T(), wire.Specialized)
	voidPlan    = wire.MustPlan[struct{}](wire.VoidT(), wire.Specialized)
	dumpPlan    = wire.MustPlan[*mapList](wire.OptionalT(
		wire.ListT("pmaplist", "next", wire.F("map", mappingType))), wire.Specialized)
)

// Registry is the in-memory mapping table.
type Registry struct {
	mu sync.RWMutex       // guards m
	m  map[Mapping]uint32 // key has Port zeroed; value is the port
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[Mapping]uint32)}
}

func key(prog, vers, prot uint32) Mapping {
	return Mapping{Prog: prog, Vers: vers, Prot: prot}
}

// Set records a mapping; it fails (returns false) if the triple is
// already bound, matching PMAPPROC_SET semantics.
func (r *Registry) Set(m Mapping) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(m.Prog, m.Vers, m.Prot)
	if _, exists := r.m[k]; exists {
		return false
	}
	r.m[k] = m.Port
	return true
}

// Unset removes all protocols bound for (prog, vers), per PMAPPROC_UNSET.
func (r *Registry) Unset(prog, vers uint32) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	removed := false
	for _, prot := range []uint32{IPProtoTCP, IPProtoUDP} {
		k := key(prog, vers, prot)
		if _, ok := r.m[k]; ok {
			delete(r.m, k)
			removed = true
		}
	}
	return removed
}

// GetPort looks up the port for a triple; 0 means unregistered.
func (r *Registry) GetPort(prog, vers, prot uint32) uint32 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[key(prog, vers, prot)]
}

// Dump snapshots all mappings.
func (r *Registry) Dump() []Mapping {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Mapping, 0, len(r.m))
	for k, port := range r.m {
		k.Port = port
		out = append(out, k)
	}
	return out
}

// RegisterService installs the portmapper procedures on srv, backed by
// reg, every one through the compiled wire plans via the typed
// registration path.
func RegisterService(srv *server.Server, reg *Registry) {
	server.RegisterTyped(srv, Prog, Vers, ProcNull, voidPlan, voidPlan,
		func(*struct{}) (*struct{}, error) { return nil, nil })
	server.RegisterTyped(srv, Prog, Vers, ProcSet, mappingPlan, boolPlan,
		func(m *Mapping) (*bool, error) {
			ok := reg.Set(*m)
			return &ok, nil
		})
	server.RegisterTyped(srv, Prog, Vers, ProcUnset, mappingPlan, boolPlan,
		func(m *Mapping) (*bool, error) {
			ok := reg.Unset(m.Prog, m.Vers)
			return &ok, nil
		})
	server.RegisterTyped(srv, Prog, Vers, ProcGetPort, mappingPlan, portPlan,
		func(m *Mapping) (*uint32, error) {
			port := reg.GetPort(m.Prog, m.Vers, m.Prot)
			return &port, nil
		})
	server.RegisterTyped(srv, Prog, Vers, ProcDump, voidPlan, dumpPlan,
		func(*struct{}) (**mapList, error) {
			var head *mapList
			ms := reg.Dump()
			for i := len(ms) - 1; i >= 0; i-- {
				head = &mapList{Map: ms[i], Next: head}
			}
			return &head, nil
		})
}

// Client wraps a generic RPC caller with typed portmapper operations.
type Client struct {
	c client.Caller
}

// NewClient returns a portmapper client over c, which must be configured
// for Prog/Vers (see ClientConfig).
func NewClient(c client.Caller) *Client { return &Client{c: c} }

// ClientConfig returns the client.Config identifying the portmapper.
func ClientConfig() client.Config { return client.Config{Prog: Prog, Vers: Vers} }

// Null pings the portmapper.
func (p *Client) Null() error {
	return client.CallTyped(p.c, ProcNull, voidPlan, &struct{}{}, voidPlan, &struct{}{})
}

// Set registers a mapping, reporting whether it was newly bound.
func (p *Client) Set(m Mapping) (bool, error) {
	var ok bool
	err := client.CallTyped(p.c, ProcSet, mappingPlan, &m, boolPlan, &ok)
	return ok, err
}

// Unset removes the mappings for (prog, vers).
func (p *Client) Unset(prog, vers uint32) (bool, error) {
	m := Mapping{Prog: prog, Vers: vers}
	var ok bool
	err := client.CallTyped(p.c, ProcUnset, mappingPlan, &m, boolPlan, &ok)
	return ok, err
}

// GetPort resolves the port for a triple; 0 means unregistered.
func (p *Client) GetPort(prog, vers, prot uint32) (uint32, error) {
	m := Mapping{Prog: prog, Vers: vers, Prot: prot}
	var port uint32
	err := client.CallTyped(p.c, ProcGetPort, mappingPlan, &m, portPlan, &port)
	return port, err
}

// Dump fetches the whole mapping table.
func (p *Client) Dump() ([]Mapping, error) {
	var head *mapList
	if err := client.CallTyped(p.c, ProcDump, voidPlan, &struct{}{}, dumpPlan, &head); err != nil {
		return nil, err
	}
	var list []Mapping
	for n := head; n != nil; n = n.Next {
		list = append(list, n.Map)
	}
	return list, nil
}
