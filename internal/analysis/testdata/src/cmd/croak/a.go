// Command croak is the docs rule's golden package for cmd/* main packages:
// exported helpers in a main package need doc comments; main itself and
// unexported helpers do not.
package main

func main() {
	Run()
	helper()
	_ = Threshold
	_ = Mode("")
}

// Run is the command's documented entry helper.
func Run() {}

func Fire() {} // want `exported Fire lacks a doc comment`

func helper() {}

type Mode string // want `exported type Mode lacks a doc comment`

var Threshold = 3 // want `exported Threshold lacks a doc comment`
