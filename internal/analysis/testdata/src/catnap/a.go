// Package catnap is the docs rule's golden package for the root catnap
// package.
package catnap

// Documented has a doc comment.
type Documented struct{}

type Bare struct{} // want `exported type Bare lacks a doc comment`

// Grouped constants share the group doc comment.
const (
	GroupedA = 1
	GroupedB = 2
)

var Loose = 3 // want `exported Loose lacks a doc comment`

// Method has a doc comment.
func (Documented) Method() {}

func (Documented) Bare() {} // want `exported Documented\.Bare lacks a doc comment`

func Exported() {} // want `exported Exported lacks a doc comment`

// hidden is unexported: neither it nor its methods are checked.
type hidden struct{}

func (hidden) Exported() {}

func helper() {}

var _ = helper
var _ = hidden{}
