package bitstream

import (
	"fmt"
	"sort"
	"sync"
)

// Repository is the SD-card store of pre-generated bitstreams: for every
// task one Partial per slot kind, plus bundle bitstreams and per-app Full
// bitstreams for the exclusive baseline. The paper generates these
// offline with an automated TCL script; here Generator fills the store.
type Repository struct {
	byName map[string]*Bitstream
	frozen bool
}

// NewRepository returns an empty store.
func NewRepository() *Repository {
	return &Repository{byName: make(map[string]*Bitstream)}
}

// Put registers b, replacing any previous bitstream of the same name.
// Putting into a frozen repository panics: published repositories are
// shared read-only across boards and goroutines.
func (r *Repository) Put(b *Bitstream) {
	if r.frozen {
		panic(fmt.Sprintf("bitstream: Put(%q) into frozen repository", b.Name))
	}
	r.byName[b.Name] = b
}

// Freeze marks the repository immutable and returns it. After Freeze,
// any Put panics; reads are safe from concurrent goroutines. This is
// the publication barrier behind the process-wide suite repository.
func (r *Repository) Freeze() *Repository {
	r.frozen = true
	return r
}

// Frozen reports whether the repository has been published read-only.
func (r *Repository) Frozen() bool { return r.frozen }

// Get returns the named bitstream.
func (r *Repository) Get(name string) (*Bitstream, error) {
	b, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("bitstream: %q not in repository", name)
	}
	return b, nil
}

// Has reports whether name is in the repository; unlike Get it builds
// no error for a missing name.
func (r *Repository) Has(name string) bool {
	_, ok := r.byName[name]
	return ok
}

// MustGet is Get for names the caller guarantees exist (generator output).
func (r *Repository) MustGet(name string) *Bitstream {
	b, err := r.Get(name)
	if err != nil {
		panic(err)
	}
	return b
}

// Len returns the number of stored bitstreams.
func (r *Repository) Len() int { return len(r.byName) }

// Names returns all stored names, sorted (for deterministic iteration).
func (r *Repository) Names() []string {
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TaskName builds the repository key for a task's partial bitstream
// targeting the named slot class.
func TaskName(app, task, class string) string {
	k := nameKey{app: app, part: task, class: class, bundle: -1}
	if name, ok := lookupName(k); ok {
		return name
	}
	return storeName(k, fmt.Sprintf("%s/%s@%s", app, task, class))
}

// BundleName builds the repository key for a 3-in-1 bundle bitstream
// targeting the named slot class. Mode is "par" or "ser".
func BundleName(app string, bundleIdx int, mode, class string) string {
	k := nameKey{app: app, part: mode, class: class, bundle: bundleIdx}
	if name, ok := lookupName(k); ok {
		return name
	}
	return storeName(k, fmt.Sprintf("%s/bundle%d-%s@%s", app, bundleIdx, mode, class))
}

// FullName builds the repository key for an app's monolithic full-fabric
// bitstream (exclusive baseline).
func FullName(app string) string {
	k := nameKey{app: app, bundle: -2}
	if name, ok := lookupName(k); ok {
		return name
	}
	return storeName(k, app+"/full")
}

// Name interning. A bitstream name is a pure function of its parts,
// and the schedulers ask for the same few names at every arrival, PR
// and pre-warm, so each is formatted once per process and then served
// from this table. Keys are the parts themselves, never a platform
// pointer, so the table grows only with distinct (app, task or mode,
// class) names, not with runs. A map under RWMutex serves concurrent
// RunMany workers without allocating; sync.Map would box
// every struct key.
type nameKey struct {
	app, part, class string
	// bundle is the bundle index, -1 for a task and -2 for a full
	// bitstream.
	bundle int
}

var nameTable = struct {
	mu sync.RWMutex
	m  map[nameKey]string
}{m: make(map[nameKey]string)}

func lookupName(k nameKey) (string, bool) {
	nameTable.mu.RLock()
	name, ok := nameTable.m[k]
	nameTable.mu.RUnlock()
	return name, ok
}

func storeName(k nameKey, name string) string {
	nameTable.mu.Lock()
	nameTable.m[k] = name
	nameTable.mu.Unlock()
	return name
}

// StaticName builds the repository key for a platform's static region.
func StaticName(platform string) string {
	return fmt.Sprintf("static/%s", platform)
}
