package main

// Example pins what the program prints at its default settings.
func Example() {
	main()
	// Output:
	// blocked, no reflector : severed=true
	// with metal panel      : path=NLOS, length 4.6 ft, departure 29.9°
	// reader re-aimed       : Pr -72.2 dBm, rate 100.00 Mb/s
	// waveform burst        : decoded=true payload="around the corner" bitErrors=0 (SNR 22.3 dB)
}
