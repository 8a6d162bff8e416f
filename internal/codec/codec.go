// Package codec is the serving stack's one JSON codec, used by both
// ends of the wire: the server decodes requests and encodes cache keys,
// responses and NDJSON lines with it, and the client encodes requests
// and decodes responses with it. Each Go type gets a plan once, built
// with reflect, that both the decoder and the encoder walk; neither
// goes through encoding/json's reflection on a value that succeeds.
//
// The contract is encoding/json's, checked by fuzzing against it:
//
//   - Decode accepts exactly the inputs json.Unmarshal accepts into a
//     fresh zero target and produces a reflect.DeepEqual value
//     (FuzzDecodeMatchesUnmarshal in internal/client).
//   - DecodeStrict is a json.Decoder with DisallowUnknownFields reading
//     one value that only whitespace may follow: it accepts exactly what
//     that decoder accepts, decodes the same value, and on a rejection
//     returns that decoder's own error, so messages read as they always
//     have (FuzzDecodeStrictMatchesEncodingJSON).
//   - Append and Marshal produce json.Marshal's bytes
//     (FuzzAppendMatchesMarshal).
//
// A type the plan builder does not support is a plan error, never a
// silent switch to encoding/json: interfaces, arrays, []byte other than
// json.RawMessage, maps with non-string keys, embedded fields, the
// ",string" and "omitzero" options, encoding.Text(Un)marshaler types,
// and a json.Marshaler or Appender with only a pointer receiver.
// Check builds both plans for a type, so a test can cover every type a
// caller passes.
package codec

import (
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"unicode"
)

// Appender is the fast path a type may implement for encoding: the
// encoder calls AppendJSON instead of walking the type's plan. The
// appended bytes must be exactly what json.Marshal produces for the
// value, which encoding/json computes by reflection since it does not
// know this interface. The method must have a value receiver.
type Appender interface {
	// AppendJSON appends the value's JSON encoding to b and returns the
	// extended slice.
	AppendJSON(b []byte) ([]byte, error)
}

type planKind uint8

const (
	kindNone planKind = iota // no plan of its own: decodeErr and encodeErr say why
	kindStruct
	kindSlice
	kindPtr
	kindMap
	kindRaw
	kindString
	kindBool
	kindInt
	kindUint
	kindFloat
)

// plan is how one Go type decodes and encodes.
type plan struct {
	kind   planKind
	typ    reflect.Type
	bits   int         // bit size of the numeric kinds
	elem   *plan       // slice, pointer and map element
	fields []fieldPlan // struct fields, in declaration order

	// Custom methods, which take precedence over kind: unmarshaler in
	// decoding (*T implements json.Unmarshaler), marshaler and appender
	// in encoding (T implements json.Marshaler or Appender).
	unmarshaler, marshaler, appender bool

	// Why the type cannot be decoded or encoded; nil when it can.
	decodeErr, encodeErr error

	// A slice plan's empty slice, which every empty array shares, and
	// its pool of scratch slices (see decoder.array).
	empty   reflect.Value
	scratch sync.Pool // *reflect.Value: a slice of length 0, zero up to its capacity
}

type fieldPlan struct {
	name      []byte // the JSON key: the tag name, or the Go field name
	key       []byte // the key as the encoder writes it, quoted and escaped, with its colon
	omitEmpty bool
	index     int // the struct field index
	plan      *plan
}

var (
	rawMessageType      = reflect.TypeFor[json.RawMessage]()
	unmarshalerType     = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshalerType = reflect.TypeFor[encoding.TextUnmarshaler]()
	marshalerType       = reflect.TypeFor[json.Marshaler]()
	textMarshalerType   = reflect.TypeFor[encoding.TextMarshaler]()
	appenderType        = reflect.TypeFor[Appender]()
)

// plans caches one plan per type.
var plans sync.Map // reflect.Type -> *plan

// planFor returns t's plan, building and caching it on first use.
func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p := buildPlan(t, make(map[reflect.Type]bool))
	cached, _ := plans.LoadOrStore(t, p)
	return cached.(*plan)
}

// decodePlan returns t's plan, or the error that keeps t from decoding.
func decodePlan(t reflect.Type) (*plan, error) {
	p := planFor(t)
	if p.decodeErr != nil {
		return nil, fmt.Errorf("codec: cannot decode into %v: %w", t, p.decodeErr)
	}
	return p, nil
}

// encodePlan returns t's plan, or the error that keeps t from encoding.
func encodePlan(t reflect.Type) (*plan, error) {
	p := planFor(t)
	if p.encodeErr != nil {
		return nil, fmt.Errorf("codec: cannot encode %v: %w", t, p.encodeErr)
	}
	return p, nil
}

// Check builds t's decode and encode plans and reports the first one
// that cannot be built.
func Check(t reflect.Type) error {
	if _, err := decodePlan(t); err != nil {
		return err
	}
	_, err := encodePlan(t)
	return err
}

// buildPlan builds t's plan. building holds the types whose plans are
// under construction: a recursive type is refused, since no wire type
// is one and a pointer cycle would not terminate the encoder.
func buildPlan(t reflect.Type, building map[reflect.Type]bool) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p := &plan{typ: t}
	if building[t] {
		p.decodeErr = fmt.Errorf("%v is recursive", t)
		p.encodeErr = p.decodeErr
		return p
	}
	building[t] = true
	defer delete(building, t)

	if t == rawMessageType {
		p.kind = kindRaw
		return p
	}
	if t.Kind() != reflect.Pointer {
		pt := reflect.PointerTo(t)
		switch {
		case pt.Implements(unmarshalerType):
			p.unmarshaler = true
		case pt.Implements(textUnmarshalerType):
			p.decodeErr = fmt.Errorf("%v has a text unmarshaler", t)
		}
		switch {
		case t.Implements(marshalerType):
			p.marshaler = true
		case pt.Implements(marshalerType):
			p.encodeErr = fmt.Errorf("%v has MarshalJSON on a pointer receiver", t)
		case pt.Implements(textMarshalerType):
			p.encodeErr = fmt.Errorf("%v has a text marshaler", t)
		case t.Implements(appenderType):
			p.appender = true
		case pt.Implements(appenderType):
			p.encodeErr = fmt.Errorf("%v has AppendJSON on a pointer receiver", t)
		}
	}
	kindErr := p.buildKind(t, building)
	if p.decodeErr == nil {
		p.decodeErr = kindErr
	}
	if p.encodeErr == nil {
		p.encodeErr = kindErr
	}
	// A custom method replaces the kind's plan in its direction.
	if p.unmarshaler {
		p.decodeErr = nil
	}
	if p.marshaler || p.appender {
		p.encodeErr = nil
	}
	return p
}

// buildKind sets p's kind and children from t's reflect kind, and
// returns the error that keeps the kind from any plan. A child's decode
// and encode errors pass up into p's separately.
func (p *plan) buildKind(t reflect.Type, building map[reflect.Type]bool) error {
	child := func(c *plan) {
		if p.decodeErr == nil {
			p.decodeErr = c.decodeErr
		}
		if p.encodeErr == nil {
			p.encodeErr = c.encodeErr
		}
	}
	switch t.Kind() {
	case reflect.Struct:
		fields, err := buildFields(t, building)
		if err != nil {
			return err
		}
		p.kind, p.fields = kindStruct, fields
		for i := range fields {
			child(fields[i].plan)
		}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return fmt.Errorf("%v encodes as base64", t)
		}
		p.kind, p.empty = kindSlice, reflect.MakeSlice(t, 0, 0)
		p.elem = buildPlan(t.Elem(), building)
		child(p.elem)
	case reflect.Pointer:
		p.kind = kindPtr
		p.elem = buildPlan(t.Elem(), building)
		child(p.elem)
	case reflect.Map:
		k := t.Key()
		if k.Kind() != reflect.String || reflect.PointerTo(k).Implements(textUnmarshalerType) || k.Implements(textMarshalerType) {
			return fmt.Errorf("%v has a non-string key", t)
		}
		p.kind = kindMap
		p.elem = buildPlan(t.Elem(), building)
		child(p.elem)
	case reflect.String:
		p.kind = kindString
	case reflect.Bool:
		p.kind = kindBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.kind, p.bits = kindInt, t.Bits()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		p.kind, p.bits = kindUint, t.Bits()
	case reflect.Float32, reflect.Float64:
		p.kind, p.bits = kindFloat, t.Bits()
	default:
		return fmt.Errorf("kind %v is not supported", t.Kind())
	}
	return nil
}

// buildFields lists the struct fields encoding/json decodes and
// encodes: the exported ones not tagged "-".
func buildFields(t reflect.Type, building map[reflect.Type]bool) ([]fieldPlan, error) {
	var fields []fieldPlan
	names := make(map[string]bool)
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			return nil, fmt.Errorf("%v embeds %v", t, sf.Type)
		}
		if !sf.IsExported() {
			continue
		}
		tag := sf.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		omitEmpty := false
		for _, o := range strings.Split(opts, ",") {
			switch o {
			case "string", "omitzero":
				return nil, fmt.Errorf("%v.%s uses the ,%s option", t, sf.Name, o)
			case "omitempty":
				omitEmpty = true
			}
		}
		if name != "" && !validTag(name) {
			return nil, fmt.Errorf("%v.%s has tag name %q", t, sf.Name, name)
		}
		if name == "" {
			name = sf.Name
		}
		if names[name] {
			return nil, fmt.Errorf("%v has two fields named %q", t, name)
		}
		names[name] = true
		fields = append(fields, fieldPlan{
			name:      []byte(name),
			key:       append(AppendString(nil, name), ':'),
			omitEmpty: omitEmpty,
			index:     i,
			plan:      buildPlan(sf.Type, building),
		})
	}
	return fields, nil
}

// validTag is encoding/json's rule for a usable tag name; it falls back
// to the Go field name on any other, which the builder refuses instead.
func validTag(s string) bool {
	for _, c := range s {
		switch {
		case strings.ContainsRune("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c):
		case !unicode.IsLetter(c) && !unicode.IsDigit(c):
			return false
		}
	}
	return true
}
