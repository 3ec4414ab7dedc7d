package main

import (
	"flag"
	"fmt"
)

func main() {
	n := flag.Int("n", 1, "how many")
	flag.Func("fault", "arm a fault (repeatable)", func(string) error { return nil })
	flag.Parse()
	fmt.Println(*n, flag.Lookup("n") != nil)
}
