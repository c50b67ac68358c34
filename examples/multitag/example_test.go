package main

// Example pins what the program prints at its default settings.
func Example() {
	main()
	// Output:
	// == scan ==
	// beam -52.5°: 1 tag(s)
	// beam -37.5°: 2 tag(s)
	// beam -22.5°: 1 tag(s)
	// beam  -7.5°: 2 tag(s)
	// beam  +7.5°: 5 tag(s)
	// beam +22.5°: 3 tag(s)
	// beam +37.5°: 3 tag(s)
	// beam +52.5°: 2 tag(s)
	//
	// == SDM schedule, 1 beam(s) ==
	// cycle 28.07 ms, aggregate 96.54 Mb/s, collision overhead 18.00 ms
	// tag  6: link 1.00 Gb/s    goodput 35.63 Mb/s
	// tag  1: link 1.00 Gb/s    goodput 35.63 Mb/s
	// tag  4: link 100.00 Mb/s  goodput 3.56 Mb/s
	// tag  9: link 100.00 Mb/s  goodput 3.56 Mb/s
	// tag  5: link 100.00 Mb/s  goodput 3.56 Mb/s
	// tag  2: link 100.00 Mb/s  goodput 3.56 Mb/s
	// tag  3: link 100.00 Mb/s  goodput 3.56 Mb/s
	// tag  8: link 100.00 Mb/s  goodput 3.56 Mb/s
	// tag 10: link 100.00 Mb/s  goodput 3.56 Mb/s
	// tag  7: link 10.00 Mb/s   goodput 356.25 kb/s
	//
	// == SDM schedule, 4 beam(s) ==
	// cycle 4.01 ms, aggregate 675.81 Mb/s, collision overhead 2.00 ms
	// tag  6: link 1.00 Gb/s    goodput 249.38 Mb/s
	// tag  1: link 1.00 Gb/s    goodput 249.38 Mb/s
	// tag  4: link 100.00 Mb/s  goodput 24.94 Mb/s
	// tag  9: link 100.00 Mb/s  goodput 24.94 Mb/s
	// tag  5: link 100.00 Mb/s  goodput 24.94 Mb/s
	// tag  2: link 100.00 Mb/s  goodput 24.94 Mb/s
	// tag  3: link 100.00 Mb/s  goodput 24.94 Mb/s
	// tag  8: link 100.00 Mb/s  goodput 24.94 Mb/s
	// tag 10: link 100.00 Mb/s  goodput 24.94 Mb/s
	// tag  7: link 10.00 Mb/s   goodput 2.49 Mb/s
}
