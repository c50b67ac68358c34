package main

// Example pins what the program prints at its default settings.
func Example() {
	main()
	// Output:
	// == sector scan (reader side — the only side that needs to search) ==
	// beam  -55.0°
	// beam  -45.0°
	// beam  -35.0°
	// beam  -25.0°
	// beam  -15.0°
	// beam   -5.0°
	// beam   +5.0°
	// beam  +15.0°  <-- tag 42 at -88.1 dBm, 10.00 Mb/s
	// beam  +25.0°  <-- tag 42 at -71.8 dBm, 100.00 Mb/s
	// beam  +35.0°  <-- tag 42 at -70.3 dBm, 100.00 Mb/s
	// beam  +45.0°  <-- tag 42 at -83.6 dBm, 10.00 Mb/s
	// beam  +55.0°
	//
	// locked beam 35.0° (true tag angle 31.0°), -70.3 dBm
	//
	// == tag rotation (tag side — no search, by construction) ==
	// rotation   Van Atta   fixed-beam
	//    -60°     -12.0 dB     -24.6 dB
	//    -45°      -6.0 dB     -22.8 dB
	//    -30°      -2.5 dB    -313.5 dB
	//    -15°      -0.6 dB     -13.5 dB
	//     +0°       0.0 dB       0.0 dB
	//    +15°      -0.6 dB     -13.5 dB
	//    +30°      -2.5 dB    -313.5 dB
	//    +45°      -6.0 dB     -22.8 dB
	//    +60°     -12.0 dB     -24.6 dB
	//
	// the retrodirective aperture holds within a few dB at every angle;
	// the fixed-beam tag only works facing the reader (paper §3).
}
