package vm

import (
	"fmt"
	"sort"

	"aide/internal/trace"
)

// Body is a method implementation: the stand-in for Java bytecode. Bodies
// run with a Thread context that provides allocation, invocation, field and
// static access, and simulated work.
type Body func(t *Thread, self ObjectID, args []Value) (Value, error)

// Method describes one method of a class.
type Method struct {
	Name string

	// Native marks methods implemented with native code. Native methods
	// cannot be migrated and are directed back to the client (paper §3.2),
	// unless Stateless and the §5.2 enhancement is enabled.
	Native bool

	// Stateless marks native methods that are stateless and/or idempotent
	// operations such as string copy or mathematical functions, which may
	// execute on the device on which they are invoked (paper §5.1, §5.2).
	Stateless bool

	// Static marks class (non-instance) methods. Static methods written in
	// Java may execute locally on either VM (paper §4).
	Static bool

	Body Body
}

// Class describes one application class: the unit of monitoring and
// placement (paper §3.1).
type Class struct {
	Name string

	// Fields names the instance fields, in slot order.
	Fields []string

	// StaticFields names the class's static data slots. Static data lives
	// on the client VM and all access is directed there (paper §3.2).
	StaticFields []string

	// Array marks primitive-array pseudo-classes (eligible for the §5.2
	// object-granularity enhancement).
	Array bool

	methods map[string]*Method
	fieldIx map[string]int
	statIx  map[string]int

	// ix is the class's index in its registry's class table: the ClassID
	// monitoring events name it by.
	ix trace.ClassID
}

// HasNative reports whether any method of the class is native, which pins
// the class to the client partition (paper §3.3).
func (c *Class) HasNative() bool {
	for _, m := range c.methods {
		if m.Native {
			return true
		}
	}
	return false
}

// Pinned reports whether the class must stay on the client: it has native
// methods. (Static data is handled by redirecting access rather than by
// pinning the whole class; static Java methods may run on either VM.)
func (c *Class) Pinned() bool { return c.HasNative() }

// NativeStateless reports whether the class has native methods and all of
// them are stateless/idempotent: annotating such classes lets the §5.2
// enhancement execute them on the device where they are invoked.
func (c *Class) NativeStateless() bool {
	any := false
	for _, m := range c.methods {
		if m.Native {
			any = true
			if !m.Stateless {
				return false
			}
		}
	}
	return any
}

// Method returns the named method, or nil.
func (c *Class) Method(name string) *Method { return c.methods[name] }

// Methods returns the method names in sorted order.
func (c *Class) Methods() []string {
	out := make([]string, 0, len(c.methods))
	for name := range c.methods {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FieldIndex returns the slot of the named instance field.
func (c *Class) FieldIndex(name string) (int, bool) {
	ix, ok := c.fieldIx[name]
	return ix, ok
}

// StaticIndex returns the slot of the named static field.
func (c *Class) StaticIndex(name string) (int, bool) {
	ix, ok := c.statIx[name]
	return ix, ok
}

// Registry holds the class definitions ("bytecodes") shared by the client
// and surrogate VMs. To simplify the platform, both VMs are assumed to have
// access to the application's bytecodes (paper §4).
type Registry struct {
	classes map[string]*Class

	// table is the class table in registration order, shaped like a
	// recording's (no events; Pinned, Array, Stateless from the class), so
	// the monitor binds it exactly as it binds a recording.
	table trace.Trace
}

// NewRegistry returns an empty class registry.
func NewRegistry() *Registry {
	return &Registry{classes: make(map[string]*Class)}
}

// ClassSpec declares a class for registration.
type ClassSpec struct {
	Name         string
	Fields       []string
	StaticFields []string
	Array        bool
	Methods      []MethodSpec
}

// MethodSpec declares a method for registration.
type MethodSpec struct {
	Name      string
	Native    bool
	Stateless bool
	Static    bool
	Body      Body
}

// Register adds a class definition. It returns an error if the name is
// taken or the spec is malformed.
func (r *Registry) Register(spec ClassSpec) (*Class, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("vm: class name must not be empty")
	}
	if _, ok := r.classes[spec.Name]; ok {
		return nil, fmt.Errorf("vm: class %q already registered", spec.Name)
	}
	c := &Class{
		Name:         spec.Name,
		Fields:       append([]string(nil), spec.Fields...),
		StaticFields: append([]string(nil), spec.StaticFields...),
		Array:        spec.Array,
		methods:      make(map[string]*Method, len(spec.Methods)),
		fieldIx:      make(map[string]int, len(spec.Fields)),
		statIx:       make(map[string]int, len(spec.StaticFields)),
		ix:           trace.ClassID(len(r.table.Classes)),
	}
	for i, f := range c.Fields {
		if _, dup := c.fieldIx[f]; dup {
			return nil, fmt.Errorf("vm: class %q duplicate field %q", spec.Name, f)
		}
		c.fieldIx[f] = i
	}
	for i, f := range c.StaticFields {
		if _, dup := c.statIx[f]; dup {
			return nil, fmt.Errorf("vm: class %q duplicate static %q", spec.Name, f)
		}
		c.statIx[f] = i
	}
	for _, m := range spec.Methods {
		if m.Name == "" {
			return nil, fmt.Errorf("vm: class %q has unnamed method", spec.Name)
		}
		if _, dup := c.methods[m.Name]; dup {
			return nil, fmt.Errorf("vm: class %q duplicate method %q", spec.Name, m.Name)
		}
		if m.Body == nil {
			return nil, fmt.Errorf("vm: class %q method %q has no body", spec.Name, m.Name)
		}
		mm := m
		c.methods[m.Name] = &Method{
			Name: mm.Name, Native: mm.Native, Stateless: mm.Stateless,
			Static: mm.Static, Body: mm.Body,
		}
	}
	r.classes[spec.Name] = c
	r.table.Classes = append(r.table.Classes,
		trace.ClassInfo{Name: c.Name, Pinned: c.Pinned(), Array: c.Array, Stateless: c.NativeStateless()})
	return c, nil
}

// Class returns the named class, or nil.
func (r *Registry) Class(name string) *Class { return r.classes[name] }

// Names returns registered class names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.table.Classes))
	for i, c := range r.table.Classes {
		out[i] = c.Name
	}
	return out
}
