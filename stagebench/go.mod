module github.com/synscan/synscan/stagebench

go 1.22

require github.com/synscan/synscan v0.0.0

replace github.com/synscan/synscan => ../
